// Tests for out-of-core training: the DDSH shard store round-trip,
// every-length truncation and every-byte corruption sweeps over a sealed
// store, forged shards that disagree on geometry, the bit-identity goldens
// (sharded nt=1 vs in-RAM, every shard count vs 1 shard, tiny-budget
// eviction churn), the page CLOCK's accounting, second chance, data
// safety, Seal() release and concurrent admission, and the shard-affine
// Hogwild path.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/sharded_trainer.h"
#include "core/tie_index.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "graph/shard_format.h"
#include "ml/matrix.h"
#include "obs/metrics.h"
#include "serve/mmap_file.h"
#include "serve/servable_model.h"
#include "train/container.h"
#include "train/sharded_store.h"
#include "util/random.h"

namespace deepdirect::core {
namespace {

namespace fs = std::filesystem;

/// A store budget that holds every fixture's M+N.
constexpr uint64_t kAmpleBudget = uint64_t{256} << 20;

/// A clean store directory under /tmp (leftovers from a previous run are
/// removed so stale shard files can never satisfy an Open).
std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Deletes a directory when it goes out of scope (or, held in a static,
/// when the process exits).
struct RemoveAllAtExit {
  std::string dir;
  ~RemoveAllAtExit() {
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

graph::HiddenDirectionSplit MakeSplit(size_t num_nodes = 250,
                                      uint64_t seed = 5) {
  data::GeneratorConfig gen;
  gen.num_nodes = num_nodes;
  gen.ties_per_node = 3.5;
  gen.seed = seed;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(seed + 1);
  return graph::HideDirections(net, 0.4, rng);
}

DeepDirectConfig BaseConfig(size_t dimensions = 16, double epochs = 2.0) {
  DeepDirectConfig config;
  config.dimensions = dimensions;
  config.epochs = epochs;
  return config;
}

DeepDirectConfig ShardedConfig(const DeepDirectConfig& base, size_t shards,
                               const std::string& dir,
                               size_t ram_budget_mb = 256) {
  DeepDirectConfig config = base;
  config.sharding.num_shards = shards;
  config.sharding.dir = dir;
  config.sharding.ram_budget_mb = ram_budget_mb;
  return config;
}

/// Asserts two trained models agree bit-for-bit: classifier parameters,
/// D-step predictions on every closure arc, and discovery accuracy.
void ExpectBitIdentical(const graph::HiddenDirectionSplit& split,
                        const DeepDirectModel& a, const DeepDirectModel& b) {
  EXPECT_EQ(a.e_step_weights(), b.e_step_weights());
  EXPECT_EQ(a.e_step_bias(), b.e_step_bias());
  const TieIndex idx(split.network);
  for (size_t e = 0; e < idx.num_arcs(); ++e) {
    const auto [u, v] = idx.ArcAt(e);
    ASSERT_EQ(a.Directionality(u, v), b.Directionality(u, v))
        << "divergence at arc " << e << " = (" << u << ", " << v << ")";
  }
  EXPECT_EQ(DirectionDiscoveryAccuracy(split, a),
            DirectionDiscoveryAccuracy(split, b));
}

TEST(ShardedTrainerTest, SingleThreadMatchesInRamBitIdentical) {
  const auto split = MakeSplit();
  const auto base = BaseConfig();
  const auto in_ram = DeepDirectModel::Train(split.network, base);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(base, 4, FreshDir("dd_shard_vs_inram")));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(split, *in_ram, *sharded.value());
}

TEST(ShardedTrainerTest, ShardCountDoesNotChangeTheModel) {
  const auto split = MakeSplit();
  const auto base = BaseConfig();
  auto one = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 1, FreshDir("dd_shard_one")));
  auto four = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 4, FreshDir("dd_shard_four")));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(one.value()->store().num_shards(), 1u);
  EXPECT_EQ(four.value()->store().num_shards(), 4u);
  ExpectBitIdentical(split, *one.value(), *four.value());
}

TEST(ShardedTrainerTest, TinyBudgetEvictsAndStaysBitIdentical) {
  // Big enough that M + N (~2.9 MB at l = 64) overflows a 1 MB budget, so
  // the serial run's global sampling churns pages through the CLOCK the
  // whole way — and the result must still match the in-RAM trainer.
  const auto split = MakeSplit(800, 7);
  const auto base = BaseConfig(64, 1.0);
  const auto in_ram = DeepDirectModel::Train(split.network, base);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(base, 8, FreshDir("dd_shard_tiny_budget"), 1));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(split, *in_ram, *sharded.value());

  const auto stats = sharded.value()->store().GetStats();
  EXPECT_GT(stats.evictions, 0u) << "budget never forced an eviction";
  EXPECT_GE(stats.admissions, stats.evictions);
  EXPECT_LE(stats.resident_bytes, stats.max_resident_bytes);
  EXPECT_LE(stats.max_resident_bytes, stats.budget_bytes);
}

TEST(ShardedTrainerTest, ExportMatchesTheInRamFile) {
  // The fixture of TinyBudgetEvictsAndStaysBitIdentical: the export reads
  // every row of M back through the 1 MB budget, in one pass, and must
  // write the in-RAM model's DDS1 file byte for byte.
  const auto split = MakeSplit(800, 7);
  const auto base = BaseConfig(64, 1.0);
  const auto in_ram = DeepDirectModel::Train(split.network, base);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(base, 8, FreshDir("dd_shard_export_store"), 1));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value()->embeddings().rows(), 0u);

  const std::string dir = FreshDir("dd_shard_export");
  fs::create_directories(dir);
  const RemoveAllAtExit cleanup{dir};
  const std::string in_ram_path = dir + "/in_ram.dds";
  const std::string sharded_path = dir + "/sharded.dds";
  ASSERT_TRUE(in_ram->ExportServable(in_ram_path).ok());
  const util::Status exported =
      sharded.value()->ExportServable(sharded_path);
  ASSERT_TRUE(exported.ok()) << exported.ToString();

  const std::string in_ram_bytes = ReadFile(in_ram_path);
  ASSERT_FALSE(in_ram_bytes.empty());
  EXPECT_TRUE(ReadFile(sharded_path) == in_ram_bytes)
      << "the sharded export differs from the in-RAM file";
  auto opened = serve::ServableModel::Open(sharded_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().num_arcs(), in_ram->index().num_arcs());

  const auto stats = sharded.value()->store().GetStats();
  EXPECT_GT(stats.evictions, 0u) << "budget never forced an eviction";
  EXPECT_LE(stats.max_resident_bytes, stats.budget_bytes);
}

TEST(ShardedTrainerTest, EveryShardCountTrainsSealsAndReopens) {
  // ⌈N/S⌉ arcs per shard leaves the last shards of some S ≤ N without arcs
  // (or starting past the last one). Every S must train the model of
  // S = 1 on shards that all hold arcs, and reopen with the same count.
  const auto split = MakeSplit(14, 11);
  const auto base = BaseConfig(4, 0.5);
  auto one = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 1, FreshDir("dd_shard_count_1")));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  const size_t num_arcs = one.value()->store().num_arcs();
  for (size_t shards = 2; shards <= num_arcs; ++shards) {
    SCOPED_TRACE(std::to_string(shards) + " shards of " +
                 std::to_string(num_arcs) + " arcs");
    const std::string dir = FreshDir("dd_shard_count_sweep");
    auto model = ShardedDeepDirectModel::Train(
        split.network, ShardedConfig(base, shards, dir));
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const train::ShardedStore& store = model.value()->store();
    ASSERT_LE(store.num_shards(), shards);
    for (size_t s = 0; s < store.num_shards(); ++s) {
      ASSERT_LT(store.ShardArcBegin(s), store.ShardArcEnd(s)) << "shard " << s;
    }
    ASSERT_EQ(store.ShardArcEnd(store.num_shards() - 1), num_arcs);
    ExpectBitIdentical(split, *one.value(), *model.value());
    auto reopened = train::ShardedStore::Open(dir, kAmpleBudget);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->num_shards(), store.num_shards());
  }
}

TEST(ShardedTrainerTest, PublishesStoreResidencyWithoutChangingTheModel) {
  const auto split = MakeSplit(800, 7);
  const auto base = BaseConfig(64, 0.5);
  auto off = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 8, FreshDir("dd_shard_obs_off"), 1));
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();
  registry.set_enabled(true);
  auto on = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 8, FreshDir("dd_shard_obs_on"), 1));
  registry.set_enabled(false);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  const auto stats = on.value()->store().GetStats();
  EXPECT_EQ(registry.GetCounter("train.store.admissions")->Value(),
            stats.admissions);
  EXPECT_EQ(registry.GetCounter("train.store.evictions")->Value(),
            stats.evictions);
  EXPECT_EQ(registry.GetGauge("train.store.resident_bytes")->Value(),
            static_cast<double>(stats.resident_bytes));
  EXPECT_EQ(registry.GetGauge("train.store.max_resident_bytes")->Value(),
            static_cast<double>(stats.max_resident_bytes));
  EXPECT_EQ(registry.GetGauge("train.store.budget_bytes")->Value(),
            static_cast<double>(stats.budget_bytes));
  registry.Reset();
  EXPECT_GT(stats.evictions, 0u);
  ExpectBitIdentical(split, *off.value(), *on.value());
}

TEST(ShardedTrainerTest, HogwildShardedTrainsToSaneAccuracy) {
  const auto split = MakeSplit();
  auto base = BaseConfig();
  base.num_threads = 4;
  auto sharded = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 4, FreshDir("dd_shard_hogwild")));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (const double w : sharded.value()->e_step_weights()) {
    ASSERT_TRUE(std::isfinite(w));
  }
  const double accuracy =
      DirectionDiscoveryAccuracy(split, *sharded.value());
  EXPECT_GT(accuracy, 0.5);  // must beat a coin flip
  EXPECT_LE(accuracy, 1.0);
}

TEST(ShardedTrainerTest, HogwildAccuracyWithinSerialSeedSpread) {
  // Shard-affine Hogwild must not cost accuracy beyond what a change of
  // trainer seed costs serially: over trainer seeds 1–5, the mean accuracy
  // of two workers on 4 shards must not fall below the serial mean minus
  // the serial range. M+N (~1.4 MB at l = 32) overflows the 1 MB budget,
  // so the store evicts. The serial runs train in RAM, which a serial
  // sharded run matches bit for bit at any budget.
  const auto split = MakeSplit(800, 7);
  auto accuracies = [&](size_t threads) {
    std::vector<double> out;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      DeepDirectConfig config = BaseConfig(32, 3.0);
      config.seed = seed;
      config.num_threads = threads;
      config.d_step.num_threads = threads;
      if (threads == 1) {
        const auto model = DeepDirectModel::Train(split.network, config);
        out.push_back(DirectionDiscoveryAccuracy(split, *model));
        continue;
      }
      auto model = ShardedDeepDirectModel::Train(
          split.network,
          ShardedConfig(config, 4, FreshDir("dd_shard_hogwild_spread"), 1));
      EXPECT_TRUE(model.ok()) << model.status().ToString();
      if (!model.ok()) break;
      EXPECT_GT(model.value()->store().GetStats().evictions, 0u);
      out.push_back(DirectionDiscoveryAccuracy(split, *model.value()));
    }
    return out;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  const std::vector<double> serial = accuracies(1);
  const std::vector<double> hogwild = accuracies(2);
  ASSERT_EQ(hogwild.size(), serial.size());
  const auto [lo, hi] = std::minmax_element(serial.begin(), serial.end());
  EXPECT_GE(mean(hogwild), mean(serial) - (*hi - *lo));
}

TEST(ShardedTrainerTest, RejectsUnsupportedConfigs) {
  const auto split = MakeSplit(60, 11);
  const auto base = BaseConfig(4, 0.5);

  auto no_sharding = ShardedDeepDirectModel::Train(split.network, base);
  EXPECT_FALSE(no_sharding.ok());
  EXPECT_EQ(no_sharding.status().code(),
            util::StatusCode::kInvalidArgument);

  auto with_checkpoint = ShardedConfig(base, 2, FreshDir("dd_shard_ckpt"));
  with_checkpoint.checkpoint.dir = "/tmp/dd_shard_ckpt_dir";
  auto checkpointed =
      ShardedDeepDirectModel::Train(split.network, with_checkpoint);
  EXPECT_FALSE(checkpointed.ok());
  EXPECT_EQ(checkpointed.status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_NE(checkpointed.status().ToString().find("checkpoint"),
            std::string::npos)
      << checkpointed.status().ToString();
}

TEST(ShardedTrainerTest, UnknownTieIsNotFound) {
  const auto split = MakeSplit(60, 11);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(BaseConfig(4, 0.5), 2, FreshDir("dd_shard_unknown")));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const TieIndex idx(split.network);
  for (graph::NodeId u = 0; u < idx.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < idx.num_nodes(); ++v) {
      if (u == v || idx.TryIndexOf(u, v) != idx.num_arcs()) continue;
      auto result = sharded.value()->TryDirectionality(u, v);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
      return;  // one unknown pair is enough
    }
  }
  ADD_FAILURE() << "fixture network is a complete digraph";
}

// ----------------------------------------------------------------------
// Store lifecycle and fault injection. The fixture is deliberately tiny
// (60 nodes, l = 4) so the every-byte sweeps stay fast under sanitizers.
// ----------------------------------------------------------------------

/// Trains a tiny sharded model once per process and shares its sealed store
/// directory with every fault-injection test (each test works on copies).
/// ctest runs every TEST in its own process and each one retrains this
/// fixture, so the directory name carries the pid.
const std::string& TinySealedStoreDir() {
  static const std::string* dir = [] {
    auto* path = new std::string(
        FreshDir("dd_shard_tiny_store_" + std::to_string(::getpid())));
    const auto split = MakeSplit(60, 11);
    auto sharded = ShardedDeepDirectModel::Train(
        split.network, ShardedConfig(BaseConfig(4, 0.5), 2, *path));
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return path;
  }();
  static const RemoveAllAtExit cleanup{*dir};
  return *dir;
}

std::vector<std::string> StoreFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Copies the tiny sealed store into a scratch directory the test may
/// mutilate freely.
std::string CopyStore(const std::string& name) {
  const std::string src = TinySealedStoreDir();
  const std::string dst = FreshDir(name);
  fs::create_directories(dst);
  for (const auto& file : StoreFiles(src)) {
    fs::copy_file(src + "/" + file, dst + "/" + file);
  }
  return dst;
}

TEST(ShardedStoreTest, SealedStoreReopensWithSameGeometryAndRows) {
  const std::string dir = TinySealedStoreDir();
  auto reopened = train::ShardedStore::Open(dir, kAmpleBudget);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  train::ShardedStore& store = *reopened.value();
  EXPECT_EQ(store.num_shards(), 2u);
  EXPECT_EQ(store.dimensions(), 4u);
  EXPECT_GT(store.num_arcs(), 0u);

  auto again = train::ShardedStore::Open(dir, kAmpleBudget);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (size_t e = 0; e < store.num_arcs(); ++e) {
    const auto row = store.EmbRow(e);
    const auto other = again.value()->EmbRow(e);
    ASSERT_EQ(0, std::memcmp(row.data(), other.data(),
                             row.size() * sizeof(float)))
        << "emb row " << e << " differs between two opens";
  }
}

TEST(ShardedStoreTest, LayoutIsOneFilePerShard) {
  const auto files = StoreFiles(TinySealedStoreDir());
  EXPECT_EQ(files,
            (std::vector<std::string>{"shard-0000.dds", "shard-0001.dds"}));
}

TEST(ShardedStoreTest, TruncationSweepEveryLengthNeverOpens) {
  const std::string dir = CopyStore("dd_shard_trunc");
  for (const auto& file : StoreFiles(dir)) {
    const std::string path = dir + "/" + file;
    const std::string pristine = ReadFile(path);
    ASSERT_FALSE(pristine.empty());
    for (size_t len = 0; len < pristine.size(); ++len) {
      WriteFile(path, pristine.substr(0, len));
      auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
      ASSERT_FALSE(opened.ok())
          << file << " truncated to " << len << " bytes still opened";
    }
    WriteFile(path, pristine);  // restore for the next file's sweep
  }
}

TEST(ShardedStoreTest, CorruptionSweepEveryByteNeverOpens) {
  const std::string dir = CopyStore("dd_shard_corrupt");
  for (const auto& file : StoreFiles(dir)) {
    const std::string path = dir + "/" + file;
    const std::string pristine = ReadFile(path);
    ASSERT_FALSE(pristine.empty());
    std::string corrupted = pristine;
    for (size_t k = 0; k < pristine.size(); ++k) {
      corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
      WriteFile(path, corrupted);
      auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
      ASSERT_FALSE(opened.ok())
          << file << " byte " << k << " corrupted but the store opened";
      corrupted[k] = pristine[k];
    }
    WriteFile(path, pristine);
  }
}

TEST(ShardedStoreTest, MissingShardFileNeverOpens) {
  const std::string dir = CopyStore("dd_shard_missing");
  fs::remove(dir + "/shard-0001.dds");
  auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
  EXPECT_FALSE(opened.ok());
}

/// Rewrites one store file: `edit` changes its section payloads, then the
/// file is laid out again and sealed with consistent CRCs.
void Reforge(const std::string& path, const train::container::Format& format,
             const std::function<void(std::vector<std::string>&)>& edit) {
  const std::string bytes = ReadFile(path);
  auto read =
      train::container::Reader::Open(format, path, bytes.data(), bytes.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  std::vector<std::string> sections;
  for (size_t i = 0; i < format.sections.size(); ++i) {
    const auto section = read.value().Array<char>(i);
    sections.emplace_back(section.data(), section.size());
  }
  edit(sections);
  std::vector<train::container::Payload> payloads;
  for (const std::string& section : sections) {
    payloads.push_back({section.data(), section.size()});
  }
  ASSERT_TRUE(train::container::WriteFile(format, payloads, path).ok());
}

/// Applies `edit` to the meta struct held in `section`.
template <typename Meta, typename Edit>
void EditMeta(std::string& section, Edit edit) {
  Meta meta;
  ASSERT_EQ(section.size(), sizeof(meta));
  std::memcpy(&meta, section.data(), sizeof(meta));
  edit(meta);
  std::memcpy(section.data(), &meta, sizeof(meta));
}

TEST(ShardedStoreTest, WrappingSectionSizesAreRejected) {
  namespace shard = graph::shard;
  // The forged store has consistent CRCs, so only the checked size
  // arithmetic can reject it: arcs x 2^62 x 4 wraps to 0, which empty emb
  // and conn sections match.
  const std::string dir = CopyStore("dd_shard_wrap_dims");
  const uint64_t dims = uint64_t{1} << 62;
  for (const char* file : {"shard-0000.dds", "shard-0001.dds"}) {
    Reforge(dir + "/" + file, shard::kShardFormat, [&](auto& sections) {
      EditMeta<shard::ShardMeta>(
          sections[0], [&](shard::ShardMeta& m) { m.dimensions = dims; });
      sections[1].clear();
      sections[2].clear();
    });
  }
  auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
  ASSERT_FALSE(opened.ok())
      << "opened with dimensions " << opened.value()->dimensions();
  EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("'dimensions'"), std::string::npos)
      << opened.status().ToString();
}

TEST(ShardedStoreTest, ShardsThatDisagreeOnGeometryAreRejected) {
  namespace shard = graph::shard;
  // Each forged store has consistent CRCs and section sizes that match its
  // own meta, so only the cross-shard check can reject it.
  const std::vector<std::pair<const char*,
                              std::function<void(shard::ShardMeta&)>>>
      forgeries = {
          {"arc hash", [](shard::ShardMeta& m) { m.arc_hash ^= 1; }},
          {"arc count", [](shard::ShardMeta& m) { ++m.num_arcs; }},
          {"shard count", [](shard::ShardMeta& m) { ++m.num_shards; }},
          {"shard index", [](shard::ShardMeta& m) { m.shard_index = 0; }},
          {"arc range",
           [](shard::ShardMeta& m) {
             ++m.arc_begin;
             ++m.arc_end;
           }},
      };
  for (const auto& [what, forge] : forgeries) {
    SCOPED_TRACE(what);
    const std::string dir = CopyStore("dd_shard_disagree");
    Reforge(dir + "/shard-0001.dds", shard::kShardFormat,
            [&](auto& sections) {
              EditMeta<shard::ShardMeta>(sections[0], forge);
            });
    auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("disagrees"), std::string::npos)
        << opened.status().ToString();
  }
  {
    // Dimensions too, with emb and conn resized to match the forged width.
    const std::string dir = CopyStore("dd_shard_disagree");
    Reforge(dir + "/shard-0001.dds", shard::kShardFormat,
            [](auto& sections) {
              uint64_t dims = 0;
              EditMeta<shard::ShardMeta>(sections[0], [&](shard::ShardMeta& m) {
                dims = ++m.dimensions;
                sections[1].assign((m.arc_end - m.arc_begin) * dims * 4, '\0');
              });
              sections[2] = sections[1];
            });
    auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("disagrees"), std::string::npos)
        << opened.status().ToString();
  }
}

/// Everything ShardedStore::Create reads, built from one split.
struct StoreInputs {
  StoreInputs(graph::HiddenDirectionSplit from, size_t dimensions)
      : split(std::move(from)), idx(split.network) {
    init.num_arcs = idx.num_arcs();
    init.arc_hash = HashTieIndex(idx);
    init.dimensions = dimensions;
  }

  graph::HiddenDirectionSplit split;
  TieIndex idx;
  train::ShardedStoreInit init;
};

/// A new, unsealed store in `dir`, filled from `Rng(seed)`.
std::unique_ptr<train::ShardedStore> CreateStore(
    const StoreInputs& inputs, const std::string& dir, size_t num_shards,
    uint64_t budget_bytes = kAmpleBudget, uint64_t seed = 3) {
  train::ShardedStoreOptions options;
  options.dir = dir;
  options.num_shards = num_shards;
  options.ram_budget_bytes = budget_bytes;
  util::Rng rng(seed);
  auto created =
      train::ShardedStore::Create(options, inputs.init, rng, -0.125f, 0.125f);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok() ? std::move(created).value() : nullptr;
}

TEST(ShardedStoreTest, UnsealedStoreIsRejected) {
  const StoreInputs inputs(MakeSplit(60, 11), 4);
  const std::string dir = FreshDir("dd_shard_unsealed");
  // Dropped without Seal(): the shard files stay live/unsealed.
  ASSERT_NE(CreateStore(inputs, dir, 2), nullptr);
  auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
  EXPECT_FALSE(opened.ok())
      << "an unsealed (mid-training) store must not validate";
}

TEST(ShardedStoreTest, CreateRemovesStaleShardFiles) {
  // A store directory reused with fewer shards must not keep the earlier
  // store's extra shard files; files of any other name stay.
  const StoreInputs inputs(MakeSplit(60, 11), 4);
  const std::string dir = FreshDir("dd_shard_stale");
  ASSERT_NE(CreateStore(inputs, dir, 8), nullptr);
  ASSERT_EQ(StoreFiles(dir).size(), 8u);
  {
    auto store = CreateStore(inputs, dir, 2);
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->Seal().ok());
  }
  EXPECT_EQ(StoreFiles(dir),
            (std::vector<std::string>{"shard-0000.dds", "shard-0001.dds"}));
  {
    auto opened = train::ShardedStore::Open(dir, kAmpleBudget);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value()->num_shards(), 2u);
  }

  for (const char* name : {"notes.txt", "shard-2.dds", "shard-0002.dds.bak"}) {
    WriteFile(dir + "/" + name, "x");
  }
  ASSERT_NE(CreateStore(inputs, dir, 1), nullptr);
  EXPECT_EQ(StoreFiles(dir),
            (std::vector<std::string>{"notes.txt", "shard-0000.dds",
                                      "shard-0002.dds.bak", "shard-2.dds"}));
  fs::remove_all(dir);
}

TEST(ShardedStoreTest, CreateFillsEmbeddingsInFillUniformOrder) {
  // The store's init fill must consume the Rng exactly like
  // ml::Matrix::FillUniform — the first leg of the bit-identity contract.
  const StoreInputs inputs(MakeSplit(60, 11), 4);
  auto store =
      CreateStore(inputs, FreshDir("dd_shard_fill"), 3, kAmpleBudget, 17);
  ASSERT_NE(store, nullptr);

  ml::Matrix reference(inputs.idx.num_arcs(), 4);
  util::Rng matrix_rng(17);
  reference.FillUniform(matrix_rng, -0.125f, 0.125f);
  for (size_t e = 0; e < inputs.idx.num_arcs(); ++e) {
    const auto row = store->EmbRow(e);
    for (size_t j = 0; j < row.size(); ++j) {
      ASSERT_EQ(row[j], reference.Row(e)[j])
          << "fill order diverges at arc " << e << " dim " << j;
    }
  }
}

// ----------------------------------------------------------------------
// The page CLOCK, on stores built with ShardedStore::Create. Budgets are
// counted in pages of whatever size the system uses.
// ----------------------------------------------------------------------

/// Page numbers (address / page size) the row's bytes lie on.
std::set<uintptr_t> PagesOf(std::span<const float> row) {
  const uint64_t page = serve::MmapRwFile::PageSize();
  const auto first = reinterpret_cast<uintptr_t>(row.data());
  std::set<uintptr_t> pages;
  for (uintptr_t p = first / page; p <= (first + row.size_bytes() - 1) / page;
       ++p) {
    pages.insert(p);
  }
  return pages;
}

/// Touches every row of M and N, forwards and then backwards.
void TouchEveryRow(train::ShardedStore& store) {
  for (size_t e = 0; e < store.num_arcs(); ++e) {
    store.EmbRow(e);
    store.ConnRow(e);
  }
  for (size_t e = store.num_arcs(); e-- > 0;) {
    store.ConnRow(e);
    store.EmbRow(e);
  }
}

void ExpectExactAccounting(const train::ShardedStore::Stats& stats) {
  const uint64_t page = serve::MmapRwFile::PageSize();
  EXPECT_EQ(stats.resident_bytes, (stats.admissions - stats.evictions) * page);
  EXPECT_LE(stats.resident_bytes, stats.max_resident_bytes);
  EXPECT_LE(stats.max_resident_bytes, stats.budget_bytes);
}

TEST(ShardedStoreTest, PageAccountingIsExactUnderAnyBudget) {
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();

  // An ample budget admits each page of M+N once and never evicts.
  auto ample = CreateStore(inputs, FreshDir("dd_page_accounting"), 2);
  ASSERT_NE(ample, nullptr);
  TouchEveryRow(*ample);
  std::set<uintptr_t> footprint;
  for (size_t e = 0; e < ample->num_arcs(); ++e) {
    footprint.merge(PagesOf(ample->EmbRow(e)));
    footprint.merge(PagesOf(ample->ConnRow(e)));
  }
  const auto ample_stats = ample->GetStats();
  ExpectExactAccounting(ample_stats);
  EXPECT_EQ(ample_stats.evictions, 0u);
  EXPECT_EQ(ample_stats.admissions, footprint.size());
  ASSERT_GT(footprint.size(), 6u) << "fixture too small to pressure";

  for (const uint64_t pages : {uint64_t{1}, uint64_t{3},
                               uint64_t{footprint.size()}}) {
    auto store = CreateStore(inputs, FreshDir("dd_page_accounting"), 2,
                             pages * page);
    ASSERT_NE(store, nullptr);
    TouchEveryRow(*store);
    const auto stats = store->GetStats();
    ExpectExactAccounting(stats);
    if (pages < footprint.size()) {
      EXPECT_GT(stats.evictions, 0u) << pages << "-page budget";
      EXPECT_EQ(stats.max_resident_bytes, pages * page);
    } else {
      EXPECT_EQ(stats.evictions, 0u) << "a budget of the footprint evicted";
      EXPECT_EQ(stats.admissions, footprint.size());
    }
  }
}

/// One row per page other than those in `covered`, as {is N, arc}, in
/// sweep order: M rows first, then N rows, each on a single page.
std::vector<std::pair<bool, size_t>> OneRowPerPage(
    train::ShardedStore& store, std::set<uintptr_t> covered) {
  std::vector<std::pair<bool, size_t>> sweep;
  for (const bool conn : {false, true}) {
    for (size_t e = 0; e < store.num_arcs(); ++e) {
      const std::set<uintptr_t> pages =
          PagesOf(conn ? store.ConnRow(e) : store.EmbRow(e));
      if (pages.size() == 1 && covered.insert(*pages.begin()).second) {
        sweep.emplace_back(conn, e);
      }
    }
  }
  return sweep;
}

TEST(ShardedStoreTest, ClockGivesAHotPageASecondChance) {
  // Each cold page is touched once, and the hot row between any two cold
  // touches. So at every admission the hot page is referenced and every
  // other resident page is not: the hand passes over the hot page at most
  // once and evicts a cold one. Exactly one admission per page results.
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store =
      CreateStore(inputs, FreshDir("dd_page_second_chance"), 2, 3 * page);
  ASSERT_NE(store, nullptr);
  const size_t hot = store->num_arcs() / 2;
  const std::set<uintptr_t> hot_pages = PagesOf(store->EmbRow(hot));
  ASSERT_EQ(hot_pages.size(), 1u);

  const auto sweep = OneRowPerPage(*store, hot_pages);
  ASSERT_GT(sweep.size(), 6u);

  ASSERT_TRUE(store->Seal().ok());  // nothing resident, nothing referenced
  const uint64_t before = store->GetStats().admissions;
  store->EmbRow(hot);
  for (const auto& [conn, e] : sweep) {
    if (conn) {
      store->ConnRow(e);
    } else {
      store->EmbRow(e);
    }
    store->EmbRow(hot);
  }
  EXPECT_EQ(store->GetStats().admissions - before, sweep.size() + 1)
      << "the hot page was evicted and faulted back in";
}

TEST(ShardedStoreTest, AnnouncedPageSurvivesWhileAnUnannouncedOneIsResident) {
  // A sweep of single-touch rows under a three-page budget evicts the page
  // of a row touched once before it. With one use of that row announced,
  // the CLOCK passes over its page as long as an unannounced resident page
  // is there to evict instead, so touching the row again admits nothing.
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store =
      CreateStore(inputs, FreshDir("dd_page_announced"), 2, 3 * page);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->StartReadAhead(1));
  const size_t kept = store->num_arcs() / 2;
  const std::set<uintptr_t> kept_pages = PagesOf(store->EmbRow(kept));
  ASSERT_EQ(kept_pages.size(), 1u);
  const auto sweep = OneRowPerPage(*store, kept_pages);
  ASSERT_GT(sweep.size(), 6u);

  for (const bool announce : {false, true}) {
    SCOPED_TRACE(announce ? "announced" : "not announced");
    ASSERT_TRUE(store->Seal().ok());  // nothing resident, nothing referenced
    if (announce) store->AnnounceEmbRow(0, kept);
    store->EmbRow(kept);
    for (const auto& [conn, e] : sweep) {
      if (conn) {
        store->ConnRow(e);
      } else {
        store->EmbRow(e);
      }
    }
    EXPECT_EQ(store->GetStats().announced_pages, announce ? 1u : 0u);
    const uint64_t before = store->GetStats().admissions;
    store->EmbRow(kept);
    EXPECT_EQ(store->GetStats().admissions - before, announce ? 0u : 1u);
    if (announce) store->RetireEmbRow(0, kept);
    EXPECT_EQ(store->GetStats().announced_pages, 0u);
    EXPECT_LE(store->GetStats().max_resident_bytes, 3 * page);
  }
}

TEST(ShardedStoreTest, EveryPageAnnouncedStillAdmitsWithinTheBudget) {
  // With every page announced, no resident page is one the CLOCK would
  // rather evict. After two laps it evicts as it does without
  // announcements, so admission never blocks and the budget holds.
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store =
      CreateStore(inputs, FreshDir("dd_page_all_announced"), 2, 3 * page);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->StartReadAhead(1));
  for (size_t e = 0; e < store->num_arcs(); ++e) {
    store->AnnounceEmbRow(0, e);
    store->AnnounceConnRow(0, e);
  }
  TouchEveryRow(*store);
  const auto stats = store->GetStats();
  ExpectExactAccounting(stats);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.max_resident_bytes, 3 * page);
  EXPECT_GT(stats.announced_pages, 6u);
  for (size_t e = 0; e < store->num_arcs(); ++e) {
    store->RetireEmbRow(0, e);
    store->RetireConnRow(0, e);
  }
  EXPECT_EQ(store->GetStats().announced_pages, 0u);
}

TEST(ShardedStoreTest, ReadAheadStopsAtEachWorkersShareOfTheBudget) {
  // Eight pages for two workers: each may announce four distinct pages
  // before it is asked to stop, whatever the other announces. A budget
  // that holds every page turns read-ahead and announcements off.
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store = CreateStore(inputs, FreshDir("dd_page_share"), 2, 8 * page);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->StartReadAhead(2));
  std::vector<size_t> rows;  // M rows on distinct pages
  for (const auto& [conn, e] : OneRowPerPage(*store, {})) {
    if (!conn) rows.push_back(e);
  }
  ASSERT_GT(rows.size(), 5u);
  size_t announced = 0;
  while (store->ReadAhead(0)) store->AnnounceEmbRow(0, rows[announced++]);
  EXPECT_EQ(announced, 4u);
  EXPECT_TRUE(store->ReadAhead(1));
  // A second use of an announced page is no new page.
  store->AnnounceEmbRow(0, rows[0]);
  store->RetireEmbRow(0, rows[0]);
  EXPECT_FALSE(store->ReadAhead(0));
  store->RetireEmbRow(0, rows[0]);
  EXPECT_TRUE(store->ReadAhead(0));
  EXPECT_EQ(store->GetStats().announced_pages, 3u);

  auto ample = CreateStore(inputs, FreshDir("dd_page_share_ample"), 2);
  ASSERT_NE(ample, nullptr);
  EXPECT_FALSE(ample->StartReadAhead(2));
  EXPECT_FALSE(ample->ReadAhead(0));
  ample->AnnounceEmbRow(0, rows[0]);
  EXPECT_EQ(ample->GetStats().announced_pages, 0u);
}

TEST(ShardedStoreTest, NoPageStaysAnnouncedAfterAShardedTrain) {
  // Every use a step announces is retired by that step's train phase, on
  // the serial and the shard-affine Hogwild path, across epoch chunks.
  const auto split = MakeSplit(800, 7);
  for (const size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    auto base = BaseConfig(64, 2.0);
    base.num_threads = threads;
    auto model = ShardedDeepDirectModel::Train(
        split.network,
        ShardedConfig(base, 8, FreshDir("dd_shard_announced_after_train"), 1));
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    const auto stats = model.value()->store().GetStats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.announced_pages, 0u);
  }
}

TEST(ShardedStoreTest, EvictedPagesLoseNoData) {
  // Under a three-page budget every page is evicted between its write and
  // its read; MADV_DONTNEED on the shared mapping must keep the data.
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store = CreateStore(inputs, FreshDir("dd_page_no_loss"), 2, 3 * page);
  ASSERT_NE(store, nullptr);
  const size_t n = store->num_arcs();
  const auto value = [](size_t e, size_t k, bool conn) {
    const float v = static_cast<float>(e * 16 + k) + 0.25f;
    return conn ? -v : v;
  };
  for (size_t e = 0; e < n; ++e) {
    auto emb = store->EmbRow(e);
    for (size_t k = 0; k < emb.size(); ++k) emb[k] = value(e, k, false);
    auto conn = store->ConnRow(e);
    for (size_t k = 0; k < conn.size(); ++k) conn[k] = value(e, k, true);
  }
  // Reading a page's first row must fault it back in: it was evicted
  // after its last write.
  std::set<uintptr_t> seen;
  size_t refaulted = 0;
  const auto check = [&](bool conn, size_t e) {
    const uint64_t before = store->GetStats().admissions;
    const auto row = conn ? store->ConnRow(e) : store->EmbRow(e);
    const bool admitted = store->GetStats().admissions > before;
    if (seen.insert(*PagesOf(row).begin()).second && admitted) ++refaulted;
    for (size_t k = 0; k < row.size(); ++k) {
      ASSERT_EQ(row[k], value(e, k, conn))
          << (conn ? "N" : "M") << " row " << e << " dim " << k;
    }
  };
  for (size_t e = 0; e < n; ++e) {
    check(false, e);
    check(true, e);
  }
  EXPECT_EQ(refaulted, seen.size()) << "a page was never evicted";
  ExpectExactAccounting(store->GetStats());
}

TEST(ShardedStoreTest, SealReleasesEveryPage) {
  // l = 24: 96-byte rows on a 64-byte-aligned section, so some straddle a
  // page boundary.
  const StoreInputs inputs(MakeSplit(), 24);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store = CreateStore(inputs, FreshDir("dd_page_seal"), 2);
  ASSERT_NE(store, nullptr);
  TouchEveryRow(*store);
  const auto trained = store->GetStats();
  ASSERT_GT(trained.resident_bytes, 0u);

  ASSERT_TRUE(store->Seal().ok());
  const auto sealed = store->GetStats();
  EXPECT_EQ(sealed.resident_bytes, 0u);
  EXPECT_EQ(sealed.evictions, trained.evictions) << "a release is no eviction";
  EXPECT_EQ(sealed.admissions, trained.admissions);

  size_t straddler = store->num_arcs();
  for (size_t e = 0; e < store->num_arcs() && straddler == store->num_arcs();
       ++e) {
    if (PagesOf(store->EmbRow(e)).size() == 2) straddler = e;
  }
  ASSERT_LT(straddler, store->num_arcs()) << "no row straddles a page";
  ASSERT_TRUE(store->Seal().ok());
  const uint64_t before = store->GetStats().admissions;
  store->EmbRow(straddler);
  const auto after = store->GetStats();
  EXPECT_EQ(after.admissions - before, 2u);
  EXPECT_EQ(after.resident_bytes, 2 * page);
}

TEST(ShardedStoreTest, ConcurrentWritersUnderThreePagesKeepAccountingAndData) {
  // Four threads write disjoint rows (arc e belongs to thread e % 4) while
  // their touches admit and evict pages under one mutex.
  const StoreInputs inputs(MakeSplit(), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  auto store = CreateStore(inputs, FreshDir("dd_page_concurrent"), 2, 3 * page);
  ASSERT_NE(store, nullptr);
  constexpr size_t kThreads = 4;
  const size_t n = store->num_arcs();
  const auto value = [](size_t e, size_t k, int pass) {
    return static_cast<float>(e * 16 + k) + 0.5f * static_cast<float>(pass);
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 3; ++pass) {
        for (size_t e = t; e < n; e += kThreads) {
          auto emb = store->EmbRow(e);
          auto conn = store->ConnRow(n - 1 - e);
          for (size_t k = 0; k < emb.size(); ++k) {
            emb[k] = value(e, k, pass);
            conn[k] = -value(e, k, pass);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto stats = store->GetStats();
  ExpectExactAccounting(stats);
  EXPECT_GT(stats.evictions, 0u);
  for (size_t e = 0; e < n; ++e) {
    const auto emb = store->EmbRow(e);
    const auto conn = store->ConnRow(n - 1 - e);
    for (size_t k = 0; k < emb.size(); ++k) {
      ASSERT_EQ(emb[k], value(e, k, 2)) << "M row " << e << " dim " << k;
      ASSERT_EQ(conn[k], -value(e, k, 2))
          << "N row " << n - 1 - e << " dim " << k;
    }
  }
}

/// Resident KiB of this process's mappings of files under `dir`, summed
/// from the Rss lines of /proc/self/smaps; -1 when smaps is unreadable.
int64_t MappedKiBUnder(const std::string& dir) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return -1;
  int64_t total = 0;
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    // A mapping's header line starts with its address range, "lo-hi".
    const size_t dash = line.find('-');
    if (dash != std::string::npos && dash > 0 &&
        std::isxdigit(static_cast<unsigned char>(line[0])) &&
        line.find(':') > dash) {
      inside = line.find(dir) != std::string::npos;
    } else if (inside && line.rfind("Rss:", 0) == 0) {
      total += std::stoll(line.substr(4));
    }
  }
  return total;
}

TEST(ShardedStoreTest, MappedPagesStayWithinTheBudget) {
  // A read fault on an unmapped page also maps neighbours that sit in the
  // page cache (fault-around), and the budget counts none of them; so
  // admission must map the admitted page alone. Rows of 16 floats never
  // straddle a page, so each read lands on the page its touch admitted.
  const StoreInputs inputs(MakeSplit(1000), 16);
  const uint64_t page = serve::MmapRwFile::PageSize();
  const uint64_t budget = 32 * page;
  const std::string dir = FreshDir("dd_page_rss_" + std::to_string(::getpid()));
  auto store = CreateStore(inputs, dir, 4, budget);
  ASSERT_NE(store, nullptr);
  ASSERT_GT(2 * store->num_arcs() * 16 * sizeof(float), 4 * budget)
      << "fixture too small to pressure";
  if (MappedKiBUnder(dir) < 0) GTEST_SKIP() << "no /proc/self/smaps";

  util::Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const size_t e = rng.NextIndex(store->num_arcs());
    const auto row = rng.NextBool(0.5) ? store->EmbRow(e) : store->ConnRow(e);
    for (const float x : row) sum += x;
  }
  EXPECT_TRUE(std::isfinite(sum));
  const auto stats = store->GetStats();
  ExpectExactAccounting(stats);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(MappedKiBUnder(dir), static_cast<int64_t>(budget / 1024));
  store.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace deepdirect::core
