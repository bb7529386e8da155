// Tests for streaming tie-batch updates (train/incremental.{h,cc} +
// core/incremental.{h,cc}): the differential parity harness (incremental
// accuracy vs full retrain over seeds and batch schedules), the empty-batch
// no-op golden (bit-identical to resuming the completed run), determinism,
// delta-file fault injection (every-length truncation + malformed-line
// sweeps), the duplicate-tie rejection contract, and the E-step state
// container round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "address_space_limit.h"
#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/incremental.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "graph/mixed_graph.h"
#include "train/incremental.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::core {
namespace {

namespace fs = std::filesystem;
using graph::MixedSocialNetwork;

// A small status network with hidden directions, shared across tests.
graph::HiddenDirectionSplit SmallSplit(uint64_t seed) {
  data::GeneratorConfig gen;
  gen.num_nodes = 250;
  gen.ties_per_node = 4.0;
  gen.direction_noise = 0.05;
  gen.status_noise = 0.1;
  gen.bidirectional_fraction = 0.2;
  gen.seed = seed;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(seed + 100);
  return graph::HideDirections(net, 0.3, rng);
}

DeepDirectConfig TestConfig() {
  DeepDirectConfig config;
  config.dimensions = 16;
  config.epochs = 2.0;
  config.seed = 21;
  return config;
}

// The training network split as "everything but the tail" plus the tail
// cut into batches — the streaming-arrival scenario.
struct TailSplit {
  MixedSocialNetwork base;
  std::vector<train::TieBatch> batches;
};

TailSplit SplitTail(const MixedSocialNetwork& g, size_t num_tail,
                    size_t num_batches, uint64_t seed) {
  std::vector<train::TieDelta> ties = ExtractTies(g);
  std::vector<size_t> order(ties.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  rng.Shuffle(order);

  std::vector<uint8_t> in_tail(ties.size(), 0);
  for (size_t i = 0; i < num_tail; ++i) in_tail[order[i]] = 1;

  graph::GraphBuilder builder(g.num_nodes());
  for (size_t i = 0; i < ties.size(); ++i) {
    if (in_tail[i]) continue;
    EXPECT_TRUE(builder.AddTie(ties[i].u, ties[i].v, ties[i].type).ok());
  }

  TailSplit out{std::move(builder).Build(), {}};
  out.batches.resize(num_batches);
  size_t k = 0;
  for (size_t i = 0; i < num_tail; ++i) {
    train::TieBatch& batch = out.batches[k % num_batches];
    train::TieDelta tie = ties[order[i]];
    tie.line = static_cast<uint32_t>(batch.ties.size() + 1);
    batch.ties.push_back(tie);
    ++k;
  }
  return out;
}

// Trains on `net` writing the final E-step state into `dir`, and returns
// the loaded warm-start state alongside the trained model.
struct TrainedBase {
  std::unique_ptr<DeepDirectModel> model;
  train::EStepState state;
};

TrainedBase TrainBase(const MixedSocialNetwork& net,
                      const DeepDirectConfig& config,
                      const std::string& dir) {
  DeepDirectConfig with_ckpt = config;
  train::CheckpointPolicy policy;
  policy.write_final = true;
  with_ckpt.checkpoint = {dir, "deepdirect.estep", policy, false};
  TrainedBase out;
  out.model = DeepDirectModel::Train(net, with_ckpt);
  auto state = train::LoadEStepState(dir);
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  out.state = std::move(state).value();
  return out;
}

// Applies `batches` in order, chaining network/state, and returns the last
// update. Asserts every application succeeds.
IncrementalUpdate ApplyAll(MixedSocialNetwork base, train::EStepState state,
                           const std::vector<train::TieBatch>& batches,
                           const DeepDirectConfig& config,
                           const IncrementalOptions& options = {}) {
  IncrementalUpdate last{std::move(base), nullptr, std::move(state), {}};
  for (const train::TieBatch& batch : batches) {
    auto updated = DeepDirectModel::ApplyTieBatch(
        last.network, batch, last.state, config, options);
    EXPECT_TRUE(updated.ok()) << updated.status().ToString();
    last = std::move(updated).value();
  }
  return last;
}

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("incremental_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Differential parity: incremental training tracks full retraining across
// seeds and batch schedules, at a fraction of the E-step steps.

TEST_F(IncrementalTest, ParityAcrossSeedsAndSchedules) {
  const DeepDirectConfig config = TestConfig();
  struct Schedule {
    size_t num_tail;
    size_t num_batches;
  };
  const Schedule schedules[] = {{24, 1}, {24, 3}};
  for (const uint64_t seed : {5ULL, 11ULL}) {
    const auto split = SmallSplit(seed);
    const auto full = DeepDirectModel::Train(split.network, config);
    const double acc_full = DirectionDiscoveryAccuracy(split, *full);
    const uint64_t full_steps = static_cast<uint64_t>(
        config.epochs *
        static_cast<double>(TieIndex(split.network).NumConnectedTiePairs()));

    for (const Schedule& schedule : schedules) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " batches=" +
                   std::to_string(schedule.num_batches));
      const std::string ckpt =
          Path("s" + std::to_string(seed) + "b" +
               std::to_string(schedule.num_batches));
      TailSplit tail = SplitTail(split.network, schedule.num_tail,
                                 schedule.num_batches, seed + 1);
      ASSERT_GT(tail.base.num_directed_ties(), 0u);
      TrainedBase base = TrainBase(tail.base, config, ckpt);

      uint64_t update_steps = 0;
      IncrementalUpdate last{std::move(tail.base), nullptr,
                             std::move(base.state), {}};
      for (const train::TieBatch& batch : tail.batches) {
        auto updated = DeepDirectModel::ApplyTieBatch(
            last.network, batch, last.state, config, {});
        ASSERT_TRUE(updated.ok()) << updated.status().ToString();
        last = std::move(updated).value();
        update_steps += last.stats.estep_steps;
      }

      // The merged network is the training network again, so the split's
      // hidden ground truth scores the incremental model directly.
      ASSERT_EQ(HashTieIndex(last.model->index()),
                HashTieIndex(full->index()));
      const double acc_inc = DirectionDiscoveryAccuracy(split, *last.model);
      EXPECT_GE(acc_inc, 0.9 * acc_full)
          << "incremental " << acc_inc << " vs full " << acc_full;
      EXPECT_LT(update_steps, full_steps);
    }
  }
}

// ---------------------------------------------------------------------------
// Empty-batch no-op golden: applying an empty batch is bit-identical to
// resuming the completed run from its final checkpoint.

TEST_F(IncrementalTest, EmptyBatchBitIdenticalToResume) {
  const auto split = SmallSplit(7);
  const DeepDirectConfig config = TestConfig();
  TrainedBase base = TrainBase(split.network, config, dir_);

  train::TieBatch empty;
  auto updated = DeepDirectModel::ApplyTieBatch(split.network, empty,
                                                base.state, config, {});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const IncrementalUpdate& update = updated.value();
  EXPECT_EQ(update.stats.new_ties, 0u);
  EXPECT_EQ(update.stats.affected_arcs, 0u);
  EXPECT_EQ(update.stats.estep_steps, 0u);

  // Bit-identical to the completed run...
  EXPECT_EQ(update.model->embeddings().data(),
            base.model->embeddings().data());
  EXPECT_EQ(update.model->e_step_weights(), base.model->e_step_weights());
  EXPECT_EQ(update.model->e_step_bias(), base.model->e_step_bias());
  EXPECT_EQ(DirectionDiscoveryAccuracy(split, *update.model),
            DirectionDiscoveryAccuracy(split, *base.model));

  // ...and to an explicit resume of that run (which replays zero E-step
  // epochs from the final checkpoint, then retrains the D-step).
  DeepDirectConfig resume_config = TestConfig();
  train::CheckpointPolicy policy;
  policy.write_final = true;
  resume_config.checkpoint = {dir_, "deepdirect.estep", policy, true};
  const auto resumed = DeepDirectModel::Train(split.network, resume_config);
  EXPECT_EQ(update.model->embeddings().data(), resumed->embeddings().data());
  EXPECT_EQ(DirectionDiscoveryAccuracy(split, *update.model),
            DirectionDiscoveryAccuracy(split, *resumed));

  // The chained state round-trips unchanged (apart from the epoch counter).
  EXPECT_EQ(update.state.m, base.state.m);
  EXPECT_EQ(update.state.n, base.state.n);
  EXPECT_EQ(update.state.w_prime, base.state.w_prime);
  EXPECT_EQ(update.state.tie_hash, base.state.tie_hash);
  EXPECT_EQ(update.state.epochs_done, base.state.epochs_done + 1);
}

// ---------------------------------------------------------------------------
// Determinism.

TEST_F(IncrementalTest, SingleThreadDeterministicAcrossRepeats) {
  const auto split = SmallSplit(9);
  const DeepDirectConfig config = TestConfig();
  TailSplit tail = SplitTail(split.network, 16, 2, 3);
  TrainedBase base = TrainBase(tail.base, config, dir_);

  const IncrementalUpdate a =
      ApplyAll(tail.base, base.state, tail.batches, config);
  const IncrementalUpdate b =
      ApplyAll(tail.base, base.state, tail.batches, config);
  EXPECT_EQ(a.state.m, b.state.m);
  EXPECT_EQ(a.state.n, b.state.n);
  EXPECT_EQ(a.state.w_prime, b.state.w_prime);
  EXPECT_EQ(a.state.b_prime, b.state.b_prime);
  EXPECT_EQ(a.model->embeddings().data(), b.model->embeddings().data());
}

TEST_F(IncrementalTest, MultiThreadedUpdateTrainsAndPredicts) {
  const auto split = SmallSplit(13);
  DeepDirectConfig config = TestConfig();
  TailSplit tail = SplitTail(split.network, 16, 2, 3);
  TrainedBase base = TrainBase(tail.base, config, dir_);

  config.num_threads = 4;
  const IncrementalUpdate update =
      ApplyAll(tail.base, base.state, tail.batches, config);
  const double acc = DirectionDiscoveryAccuracy(split, *update.model);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

// ---------------------------------------------------------------------------
// Batch-file fault injection.

constexpr char kGoodDelta[] =
    "# nodes 12\n"
    "0 5 d\n"
    "1 6 b\n"
    "2 7 u\n"
    "3 8 d\n";

TEST_F(IncrementalTest, ParsesTheDeltaGrammar) {
  std::istringstream in(kGoodDelta);
  auto batch = train::ParseTieBatch(in, "delta");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().ties.size(), 4u);
  EXPECT_EQ(batch.value().declared_nodes, 12u);
  EXPECT_EQ(batch.value().max_node_id, 8u);
  EXPECT_EQ(batch.value().ties[1].type, graph::TieType::kBidirectional);
  EXPECT_EQ(batch.value().ties[3].line, 5u);  // 1-based, after the header

  // The largest id and node count a NodeId can index.
  std::istringstream widest("# nodes 4294967295\n4294967294 0 d\n");
  auto wide = train::ParseTieBatch(widest, "widest");
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide.value().max_node_id, 4294967294u);
  EXPECT_EQ(wide.value().declared_nodes, 4294967295u);
}

TEST_F(IncrementalTest, EveryLengthTruncationParsesOrRejectsTyped) {
  const std::string good(kGoodDelta);
  for (size_t len = 0; len <= good.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    std::istringstream in(good.substr(0, len));
    auto batch = train::ParseTieBatch(in, "trunc");
    if (batch.ok()) {
      // A clean-cut prefix is simply a shorter batch.
      EXPECT_LE(batch.value().ties.size(), 4u);
    } else {
      EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument)
          << batch.status().ToString();
      EXPECT_NE(batch.status().ToString().find("trunc"), std::string::npos);
    }
  }
}

TEST_F(IncrementalTest, MalformedLinesRejectLineAnchored) {
  const struct {
    const char* line;
    const char* needle;
  } cases[] = {
      {"5", "malformed"},
      {"5 6", "malformed"},
      {"notanumber 6 d", "malformed"},
      {"5 6 x", "unknown tie type"},
      {"5 6 d trailing", "trailing"},
      {"5 5 d", "self-loop"},
      // Ids lie in [0, 2^32 − 1) and `# nodes` is at most 2^32 − 1, so
      // the merged node count fits a NodeId.
      {"4294967296 1 d", "node id 4294967296"},
      {"4294967295 0 d", "node id 4294967295"},
      {"1 4294967295 u", "node id 4294967295"},
      {"# nodes 4294967297", "declares 4294967297 nodes"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    std::istringstream in(std::string("0 1 d\n") + c.line + "\n");
    auto batch = train::ParseTieBatch(in, "bad");
    ASSERT_FALSE(batch.ok()) << c.line;
    EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument);
    const std::string message = batch.status().ToString();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find(c.needle), std::string::npos) << message;
  }
}

TEST_F(IncrementalTest, MissingDeltaFileIsIOError) {
  auto batch = train::LoadTieBatch(Path("does-not-exist.edges"));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), util::StatusCode::kIOError);
}

TEST_F(IncrementalTest, FailedBatchLeavesModelAndStoreUntouched) {
  const auto split = SmallSplit(17);
  const DeepDirectConfig config = TestConfig();
  TrainedBase base = TrainBase(split.network, config, dir_);
  const train::EStepState before = base.state;
  std::vector<std::string> store_before;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    store_before.push_back(entry.path().string());
  }
  std::sort(store_before.begin(), store_before.end());

  // A batch whose second tie duplicates an existing edge must fail without
  // touching the model, the state, or the checkpoint store.
  const auto [u, v] = base.model->index().ArcAt(0);
  train::TieBatch bad;
  bad.ties.push_back({9999, 10000, graph::TieType::kDirected, 1});
  bad.ties.push_back({v, u, graph::TieType::kUndirected, 2});
  auto updated = DeepDirectModel::ApplyTieBatch(split.network, bad,
                                                base.state, config, {});
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), util::StatusCode::kInvalidArgument);

  // Post-failure golden: the state bytes and the store are unchanged and
  // the base model still answers.
  EXPECT_EQ(base.state.m, before.m);
  EXPECT_EQ(base.state.w_prime, before.w_prime);
  std::vector<std::string> store_after;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    store_after.push_back(entry.path().string());
  }
  std::sort(store_after.begin(), store_after.end());
  EXPECT_EQ(store_after, store_before);
  const double d = base.model->Directionality(u, v);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

// A batch's `# nodes` line sizes the merged network's per-node arrays; a
// count the grammar accepts but memory cannot hold must fail as a typed
// status, leaving the state and the store as they were.
TEST_F(IncrementalTest, UnallocatableNodeCountIsResourceExhausted) {
  if (deepdirect::testing::kSanitizerReservesAddressSpace) {
    GTEST_SKIP() << "the sanitizer's shadow memory exceeds the cap";
  }
  const auto split = SmallSplit(23);
  const DeepDirectConfig config = TestConfig();
  TrainedBase base = TrainBase(split.network, config, dir_);
  const train::EStepState before = base.state;
  auto store_bytes = [this] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      files.emplace_back(entry.path().string(), bytes.str());
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto store_before = store_bytes();

  const auto new_node = static_cast<graph::NodeId>(split.network.num_nodes());
  train::TieBatch batch;
  batch.declared_nodes = 4294967295u;
  batch.ties.push_back({0, new_node, graph::TieType::kDirected, 2});
  EXPECT_EXIT(
      {
        if (!deepdirect::testing::CapAddressSpace()) std::exit(2);
        const auto updated = DeepDirectModel::ApplyTieBatch(
            split.network, batch, base.state, config, {});
        std::fprintf(stderr, "%s\n", updated.status().ToString().c_str());
        const bool typed =
            !updated.ok() && updated.status().code() ==
                                 util::StatusCode::kResourceExhausted;
        const bool untouched = base.state.m == before.m &&
                               base.state.n == before.n &&
                               base.state.w_prime == before.w_prime &&
                               store_bytes() == store_before;
        std::exit(typed && untouched ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "RESOURCE_EXHAUSTED: .*4294967295 nodes");
}

// ---------------------------------------------------------------------------
// Duplicate rejection (regression: duplicates must never double-insert
// into the closure CSR).

TEST_F(IncrementalTest, DuplicateOfExistingTieRejectedWithLineNumber) {
  const auto split = SmallSplit(19);
  const DeepDirectConfig config = TestConfig();
  TrainedBase base = TrainBase(split.network, config, dir_);
  const auto [u, v] = base.model->index().ArcAt(0);

  for (const bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "reversed orientation" : "same orientation");
    train::TieBatch bad;
    bad.ties.push_back({reversed ? v : u, reversed ? u : v,
                        graph::TieType::kDirected, 7});
    auto updated = DeepDirectModel::ApplyTieBatch(split.network, bad,
                                                  base.state, config, {});
    ASSERT_FALSE(updated.ok());
    EXPECT_EQ(updated.status().code(), util::StatusCode::kInvalidArgument);
    const std::string message = updated.status().ToString();
    EXPECT_NE(message.find("line 7"), std::string::npos) << message;
    EXPECT_NE(message.find("already exists"), std::string::npos) << message;
  }
}

TEST_F(IncrementalTest, InBatchDuplicateNamesBothLines) {
  std::istringstream in("3 4 d\n1 2 b\n4 3 u\n");
  auto batch = train::ParseTieBatch(in, "dup");
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument);
  const std::string message = batch.status().ToString();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("first declared at line 1"), std::string::npos)
      << message;
}

// ---------------------------------------------------------------------------
// Growth and state mechanics.

TEST_F(IncrementalTest, NewNodesExtendTheNetwork) {
  const auto split = SmallSplit(23);
  const DeepDirectConfig config = TestConfig();
  TrainedBase base = TrainBase(split.network, config, dir_);
  const graph::NodeId fresh =
      static_cast<graph::NodeId>(split.network.num_nodes());

  train::TieBatch batch;
  batch.ties.push_back({0, fresh, graph::TieType::kDirected, 1});
  batch.ties.push_back({fresh, fresh + 1, graph::TieType::kUndirected, 2});
  auto updated = DeepDirectModel::ApplyTieBatch(split.network, batch,
                                                base.state, config, {});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const IncrementalUpdate& update = updated.value();
  EXPECT_EQ(update.stats.new_nodes, 2u);
  EXPECT_EQ(update.network.num_nodes(), split.network.num_nodes() + 2);
  EXPECT_EQ(update.stats.new_arcs, 4u);
  const auto d = update.model->TryDirectionality(fresh, fresh + 1);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_GE(d.value(), 0.0);
  EXPECT_LE(d.value(), 1.0);
}

TEST_F(IncrementalTest, EStepStateRoundTrips) {
  train::EStepState state;
  state.dimensions = 3;
  state.num_arcs = 2;
  state.m = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  state.n = {0.5f, 0.25f, 0.0f, -1.0f, -2.0f, -3.0f};
  state.w_prime = {0.1, 0.2, 0.3};
  state.b_prime = -0.75;
  state.tie_hash = 0xfeedULL;
  state.epochs_done = 9;
  ASSERT_TRUE(train::SaveEStepState(dir_, "deepdirect.estep", state).ok());

  auto loaded = train::LoadEStepState(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dimensions, state.dimensions);
  EXPECT_EQ(loaded.value().num_arcs, state.num_arcs);
  EXPECT_EQ(loaded.value().m, state.m);
  EXPECT_EQ(loaded.value().n, state.n);
  EXPECT_EQ(loaded.value().w_prime, state.w_prime);
  EXPECT_EQ(loaded.value().b_prime, state.b_prime);
  EXPECT_EQ(loaded.value().tie_hash, state.tie_hash);
  EXPECT_EQ(loaded.value().epochs_done, state.epochs_done);
}

TEST_F(IncrementalTest, LoadSkipsCorruptNewestCheckpoint) {
  train::EStepState state;
  state.dimensions = 2;
  state.num_arcs = 1;
  state.m = {1.0f, 2.0f};
  state.n = {3.0f, 4.0f};
  state.w_prime = {0.5, 0.5};
  state.epochs_done = 3;
  ASSERT_TRUE(train::SaveEStepState(dir_, "deepdirect.estep", state).ok());
  state.epochs_done = 4;
  ASSERT_TRUE(train::SaveEStepState(dir_, "deepdirect.estep", state).ok());

  // Truncate the newest checkpoint; the scan must fall back to epoch 3.
  const std::string newest = Path("deepdirect.estep-00000004.ckpt");
  ASSERT_TRUE(fs::exists(newest));
  fs::resize_file(newest, fs::file_size(newest) / 2);
  auto loaded = train::LoadEStepState(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epochs_done, 3u);
}

TEST_F(IncrementalTest, MissingStateIsNotFound) {
  auto loaded = train::LoadEStepState(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(IncrementalTest, StateFromDifferentNetworkRejected) {
  const auto split_a = SmallSplit(29);
  const auto split_b = SmallSplit(31);
  const DeepDirectConfig config = TestConfig();
  TrainedBase base = TrainBase(split_a.network, config, dir_);

  train::TieBatch empty;
  auto updated = DeepDirectModel::ApplyTieBatch(split_b.network, empty,
                                                base.state, config, {});
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(IncrementalTest, TrainResumeSkipsUpdateCheckpoints) {
  // A directory holding only an update-written state must not derail a
  // full retrain with --resume: its run shape belongs to no training
  // budget, so the resume scan warns, skips it, and starts fresh.
  const auto split = SmallSplit(37);
  DeepDirectConfig config = TestConfig();
  train::EStepState state;
  state.dimensions = config.dimensions;
  state.num_arcs = TieIndex(split.network).num_arcs();
  state.m.assign(state.num_arcs * state.dimensions, 0.5f);
  state.n.assign(state.num_arcs * state.dimensions, 0.0f);
  state.w_prime.assign(state.dimensions, 0.0);
  state.epochs_done = 2;
  ASSERT_TRUE(train::SaveEStepState(dir_, "deepdirect.estep", state).ok());

  train::CheckpointPolicy policy;
  policy.write_final = true;
  config.checkpoint = {dir_, "deepdirect.estep", policy, true};
  const auto resumed = DeepDirectModel::Train(split.network, config);
  const auto fresh = DeepDirectModel::Train(split.network, TestConfig());
  EXPECT_EQ(resumed->embeddings().data(), fresh->embeddings().data());
}

}  // namespace
}  // namespace deepdirect::core
