// The discover, update and train_ooc workloads. Each generates its inputs
// from the workload seed in set-up, drives the public graph / core /
// train / serve calls in the timed section, and checks every answer.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/incremental.h"
#include "core/sharded_trainer.h"
#include "data/datasets.h"
#include "graph/graph_io.h"
#include "train/incremental.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace deepdirect;

namespace {

/// Twitter-config scales: discover in RAM, update's base + tail, and the
/// out-of-core graph whose M+N footprint exceeds the shard budget.
constexpr double kDiscoverScale = 0.6;
constexpr double kUpdateScale = 1.0;
constexpr double kOocScale = 0.33;
/// Discover and train_ooc repeat their operation until the deadline, and
/// at least this often.
constexpr size_t kMinOps = 3;
/// Update batches of 0.25% of the ties each: at least ten cycles on each
/// side of the median.
constexpr size_t kUpdateBatches = 41;
constexpr double kUpdateBatchFraction = 0.0025;
/// Out-of-core: shards and epochs.
constexpr size_t kOocShards = 4;
constexpr double kOocEpochs = 1.0;

/// Removes the files in `dir`; returns how many there were and, through
/// `bytes`, their total size.
size_t RemoveFiles(const std::string& dir, double* bytes) {
  size_t files = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    *bytes += static_cast<double>(entry.file_size(ec));
    fs::remove(entry.path(), ec);
    ++files;
  }
  return files;
}

/// Writes `ties` as a tie-batch delta file.
util::Status WriteBatch(const std::string& path, size_t num_nodes,
                        const std::vector<train::TieDelta>& ties) {
  std::ofstream out(path, std::ios::trunc);
  out << "# nodes " << num_nodes << "\n";
  for (const train::TieDelta& tie : ties) {
    const char type = tie.type == graph::TieType::kDirected        ? 'd'
                      : tie.type == graph::TieType::kBidirectional ? 'b'
                                                                   : 'u';
    out << tie.u << ' ' << tie.v << ' ' << type << '\n';
  }
  out.flush();
  return out.good() ? util::Status::OK()
                    : util::Status::IOError("cannot write " + path);
}

}  // namespace

Result RunDiscover(const Options& options) {
  Result result;
  result.op_name = "pipeline";
  const std::string edges = options.work_dir + "/discover.edges";
  const std::string dds = options.work_dir + "/discover.dds";
  data::GeneratorConfig generator =
      data::DatasetConfig(data::DatasetId::kTwitter, kDiscoverScale);
  generator.seed = DeriveSeed(options.seed, 1);
  if (!result.TimeSetUp([&] {
        return data::WriteStatusNetworkEdgeList(generator, edges);
      })) {
    return result;
  }
  const core::DeepDirectConfig config = TrainConfig();

  std::vector<double> op_s;
  std::vector<double> accuracies;
  uint64_t pairs_scored = 0;
  uint64_t steps = 0;
  Bytes bytes;
  Ledger ledger(options.trace);
  StartPeakRss();
  ledger.Begin();
  const double deadline = Now() + options.seconds;
  while (result.failed == 0 &&
         (op_s.size() < kMinOps || Now() < deadline)) {
    ++result.attempted;
    const double start = Now();
    std::optional<graph::MixedSocialNetwork> network;
    {
      obs::TraceSpan span("pb.load");
      auto loaded = graph::LoadEdgeList(edges, kWorkers);
      if (!result.Check(loaded.status(), "LoadEdgeList")) break;
      network.emplace(std::move(loaded).value());
    }
    std::optional<graph::HiddenDirectionSplit> split;
    {
      obs::TraceSpan span("pb.split");
      util::Rng rng(DeriveSeed(options.seed, 2));
      split = graph::HideDirections(*network, 0.5, rng);
    }
    std::unique_ptr<core::DeepDirectModel> model;
    {
      obs::TraceSpan span("pb.train");
      model = core::DeepDirectModel::Train(split->network, config);
    }
    std::optional<serve::ServableModel> served;
    if (!ExportAndOpen(*model, dds, /*cache_capacity=*/0, &served, &bytes,
                       &result)) {
      break;
    }
    std::vector<serve::TiePair> pairs;
    std::vector<double> values;
    {
      obs::TraceSpan span("pb.score");
      pairs = HiddenPairs(*split);
      values.resize(pairs.size());
      if (!result.Check(served->QueryBatch(pairs, values), "QueryBatch")) {
        break;
      }
    }
    op_s.push_back(Now() - start);
    {
      obs::TraceSpan span("pb.check");
      CheckServed(*model, pairs, values, &result);
      accuracies.push_back(PairAccuracy(values));
      const core::TieIndex& index = model->index();
      steps = static_cast<uint64_t>(
          config.epochs * static_cast<double>(index.NumConnectedTiePairs()));
      pairs_scored += pairs.size();
      if (result.graphs.empty()) {
        result.graphs.push_back(StampOf("discover", index));
      }
    }
  }
  ledger.End();
  result.peak_rss_mb = PeakRssMb();

  result.op_times = Summarize(op_s);
  const double ops = static_cast<double>(op_s.size());
  result.accuracy = Median(accuracies);
  result.Detail("discover_s", result.op_times.p50, "s");
  result.Detail("discover_accuracy", result.accuracy, "frac");
  FillCommonLayers(ledger, ops, &result);
  FillTrainLayers(ledger, static_cast<double>(steps), &result);
  FillContainerLayers(ledger, bytes, &result);
  if (ledger.enabled() && pairs_scored > 0) {
    result.layer["serve.score_ns_per_pair"] =
        ledger.Inclusive({"pb.score"}) * 1e9 /
        static_cast<double>(pairs_scored);
  }
  return result;
}

Result RunUpdate(const Options& options) {
  Result result;
  result.op_name = "cycle";
  const std::string raw_edges = options.work_dir + "/update.full.edges";
  const std::string base_edges = options.work_dir + "/update.base.edges";
  const std::string ckpt_dir = options.work_dir + "/update.ckpt";
  const std::string dds = options.work_dir + "/update.dds";
  const core::DeepDirectConfig config = TrainConfig();

  struct Inputs {
    std::optional<graph::HiddenDirectionSplit> full;
    std::optional<graph::MixedSocialNetwork> base;
    std::vector<train::TieBatch> batches;
    train::EStepState state;
  };
  std::optional<Inputs> inputs;
  const auto set_up = [&]() -> util::Status {
    data::GeneratorConfig generator =
        data::DatasetConfig(data::DatasetId::kTwitter, kUpdateScale);
    generator.seed = DeriveSeed(options.seed, 11);
    DD_RETURN_NOT_OK(data::WriteStatusNetworkEdgeList(generator, raw_edges));
    auto loaded = graph::LoadEdgeList(raw_edges, kWorkers);
    DD_RETURN_NOT_OK(loaded.status());
    inputs.emplace();
    util::Rng rng(DeriveSeed(options.seed, 12));
    inputs->full = graph::HideDirections(loaded.value(), 0.5, rng);
    const graph::MixedSocialNetwork& full = inputs->full->network;

    // Hold back a random tail of ties as the update batches.
    std::vector<train::TieDelta> ties = core::ExtractTies(full);
    rng.Shuffle(ties);
    const size_t per_batch = std::max<size_t>(
        1, static_cast<size_t>(kUpdateBatchFraction *
                               static_cast<double>(ties.size())));
    const size_t tail = per_batch * kUpdateBatches;
    graph::GraphBuilder builder(full.num_nodes());
    for (size_t i = tail; i < ties.size(); ++i) {
      DD_RETURN_NOT_OK(builder.AddTie(ties[i].u, ties[i].v, ties[i].type));
    }
    DD_RETURN_NOT_OK(graph::SaveEdgeList(std::move(builder).Build(),
                                         base_edges));
    auto base = graph::LoadEdgeList(base_edges, kWorkers);
    DD_RETURN_NOT_OK(base.status());
    inputs->base.emplace(std::move(base).value());
    for (size_t b = 0; b < kUpdateBatches; ++b) {
      const std::string path =
          options.work_dir + "/update.batch-" + std::to_string(b) + ".edges";
      DD_RETURN_NOT_OK(WriteBatch(
          path, full.num_nodes(),
          std::vector<train::TieDelta>(ties.begin() + b * per_batch,
                                       ties.begin() + (b + 1) * per_batch)));
      auto batch = train::LoadTieBatch(path);
      DD_RETURN_NOT_OK(batch.status());
      inputs->batches.push_back(std::move(batch).value());
    }

    // Train the base once, persisting the final E-step state.
    std::error_code ec;
    fs::remove_all(ckpt_dir, ec);
    core::DeepDirectConfig base_config = config;
    base_config.checkpoint.dir = ckpt_dir;
    base_config.checkpoint.trainer = "deepdirect.estep";
    base_config.checkpoint.policy.write_final = true;
    core::DeepDirectModel::Train(*inputs->base, base_config);
    auto state = train::LoadEStepState(ckpt_dir);
    DD_RETURN_NOT_OK(state.status());
    inputs->state = std::move(state).value();
    return util::Status::OK();
  };
  if (!result.TimeSetUp(set_up)) return result;

  graph::MixedSocialNetwork network = std::move(*inputs->base);
  train::EStepState state = std::move(inputs->state);
  std::unique_ptr<core::DeepDirectModel> model;
  std::optional<serve::ServableModel> served;
  std::vector<double> op_s;
  double new_ties = 0.0;
  double affected_arcs = 0.0;
  double steps = 0.0;
  Bytes bytes;
  const core::IncrementalOptions update_options;
  // Each cycle's SaveEStepState then writes the directory's only file.
  std::error_code ec;
  fs::remove_all(ckpt_dir, ec);
  Ledger ledger(options.trace);
  StartPeakRss();
  ledger.Begin();
  for (const train::TieBatch& batch : inputs->batches) {
    ++result.attempted;
    const double start = Now();
    std::optional<core::IncrementalUpdate> update;
    {
      obs::TraceSpan span("pb.apply");
      auto applied = core::DeepDirectModel::ApplyTieBatch(
          network, batch, state, config, update_options);
      if (!result.Check(applied.status(), "ApplyTieBatch")) break;
      update.emplace(std::move(applied).value());
    }
    {
      obs::TraceSpan span("pb.save_state");
      if (!result.Check(train::SaveEStepState(ckpt_dir, "deepdirect.estep",
                                              update->state),
                        "SaveEStepState")) {
        break;
      }
    }
    if (!ExportAndOpen(*update->model, dds, /*cache_capacity=*/0, &served,
                       &bytes, &result)) {
      break;
    }
    std::vector<serve::TiePair> pairs;
    std::vector<double> values;
    {
      obs::TraceSpan span("pb.score");
      for (const train::TieDelta& tie : batch.ties) {
        pairs.push_back({tie.u, tie.v});
        pairs.push_back({tie.v, tie.u});
      }
      values.resize(pairs.size());
      if (!result.Check(served->QueryBatch(pairs, values), "QueryBatch")) {
        break;
      }
    }
    op_s.push_back(Now() - start);
    {
      obs::TraceSpan span("pb.check");
      CheckServed(*update->model, pairs, values, &result);
      if (RemoveFiles(ckpt_dir, &bytes.saved) != 1) {
        result.Fail("SaveEStepState did not write one checkpoint file");
      }
      new_ties += static_cast<double>(update->stats.new_ties);
      affected_arcs += static_cast<double>(update->stats.affected_arcs);
      steps += static_cast<double>(update->stats.estep_steps);
    }
    network = std::move(update->network);
    state = std::move(update->state);
    model = std::move(update->model);
  }
  if (result.failed == 0 && model != nullptr) {
    obs::TraceSpan span("pb.check");
    // The merged network must be the full graph, tie for tie.
    const core::TieIndex full_index(inputs->full->network);
    if (core::HashTieIndex(model->index()) !=
        core::HashTieIndex(full_index)) {
      result.Fail("merged network differs from the full graph");
    }
    const std::vector<serve::TiePair> pairs = HiddenPairs(*inputs->full);
    std::vector<double> values(pairs.size());
    if (result.Check(served->QueryBatch(pairs, values), "QueryBatch")) {
      CheckServed(*model, pairs, values, &result);
      result.accuracy = PairAccuracy(values);
    }
    result.graphs.push_back(StampOf("update.merged", model->index()));
  }
  ledger.End();
  result.peak_rss_mb = PeakRssMb();

  result.op_times = Summarize(op_s);
  const double ops = static_cast<double>(op_s.size());
  result.Detail("update_cycle_p50_s", result.op_times.p50, "s");
  result.Detail("update_accuracy", result.accuracy, "frac");
  FillCommonLayers(ledger, ops, &result);
  FillTrainLayers(ledger, ops > 0.0 ? steps / ops : 0.0, &result);
  FillContainerLayers(ledger, bytes, &result);
  if (ledger.enabled() && ops > 0.0) {
    result.layer["core.update_affected_arcs"] = affected_arcs / ops;
    result.layer["serve.score_ns_per_pair"] =
        ledger.Inclusive({"pb.score"}) * 1e9 / (2.0 * new_ties);
  }
  return result;
}

Result RunTrainOoc(const Options& options) {
  Result result;
  result.op_name = "sharded train";
  const std::string edges = options.work_dir + "/ooc.edges";
  const std::string store_dir = options.work_dir + "/ooc.store";
  core::DeepDirectConfig config = TrainConfig();
  config.epochs = kOocEpochs;
  // One worker: with two, shard-affine Hogwild learns no direction, so the
  // accuracy would be noise around chance (see README.md). Serially the
  // sharded trainer is bit-identical to the in-RAM one.
  result.workers = 1;
  config.num_threads = result.workers;
  config.d_step.num_threads = result.workers;

  std::optional<graph::HiddenDirectionSplit> split;
  uint64_t budget_bytes = 0;
  const auto set_up = [&]() -> util::Status {
    data::GeneratorConfig generator =
        data::DatasetConfig(data::DatasetId::kTwitter, kOocScale);
    generator.seed = DeriveSeed(options.seed, 21);
    DD_RETURN_NOT_OK(data::WriteStatusNetworkEdgeList(generator, edges));
    auto loaded = graph::LoadEdgeList(edges, kWorkers);
    DD_RETURN_NOT_OK(loaded.status());
    util::Rng rng(DeriveSeed(options.seed, 22));
    split = graph::HideDirections(loaded.value(), 0.5, rng);
    // Budget: the smallest whole MiB that holds three of the four shards,
    // which stays below the M+N footprint, so admission has to evict.
    const double arcs = 2.0 * static_cast<double>(split->network.num_ties());
    const double footprint_mb = 2.0 * sizeof(float) *
                                static_cast<double>(config.dimensions) *
                                arcs / (1 << 20);
    config.sharding.num_shards = kOocShards;
    config.sharding.dir = store_dir;
    config.sharding.ram_budget_mb = static_cast<size_t>(
        std::ceil(footprint_mb * (kOocShards - 1) / kOocShards));
    if (static_cast<double>(config.sharding.ram_budget_mb) >= footprint_mb) {
      return util::Status::InvalidArgument(
          "the shard budget does not undercut the M+N footprint");
    }
    budget_bytes = static_cast<uint64_t>(config.sharding.ram_budget_mb) << 20;
    return util::Status::OK();
  };
  if (!result.TimeSetUp(set_up)) return result;

  std::vector<double> op_s;
  std::vector<double> accuracies;
  double admissions = 0.0;
  double evictions = 0.0;
  double max_resident = 0.0;
  uint64_t steps = 0;
  Ledger ledger(options.trace);
  StartPeakRss();
  ledger.Begin();
  const double deadline = Now() + options.seconds;
  while (result.failed == 0 &&
         (op_s.size() < kMinOps || Now() < deadline)) {
    ++result.attempted;
    {
      obs::TraceSpan span("pb.cleanup");
      std::error_code ec;
      fs::remove_all(store_dir, ec);
    }
    const double start = Now();
    std::unique_ptr<core::ShardedDeepDirectModel> model;
    {
      obs::TraceSpan span("pb.train");
      auto trained =
          core::ShardedDeepDirectModel::Train(split->network, config);
      if (!result.Check(trained.status(), "ShardedDeepDirectModel::Train")) {
        break;
      }
      model = std::move(trained).value();
    }
    op_s.push_back(Now() - start);
    const train::ShardedStore::Stats stats = model->store().GetStats();
    {
      obs::TraceSpan span("pb.eval");
      accuracies.push_back(core::DirectionDiscoveryAccuracy(*split, *model));
    }
    {
      obs::TraceSpan span("pb.check");
      if (stats.max_resident_bytes > stats.budget_bytes ||
          stats.budget_bytes != budget_bytes) {
        result.Fail("resident bytes exceeded the shard budget");
      }
      if (stats.evictions == 0) result.Fail("the shard store never evicted");
      admissions += static_cast<double>(stats.admissions);
      evictions += static_cast<double>(stats.evictions);
      max_resident = std::max(
          max_resident, static_cast<double>(stats.max_resident_bytes));
      if (result.graphs.empty()) {
        const core::TieIndex index(split->network);
        steps = static_cast<uint64_t>(
            config.epochs * static_cast<double>(index.NumConnectedTiePairs()));
        result.graphs.push_back(StampOf("train_ooc", index));
      }
    }
  }
  ledger.End();
  result.peak_rss_mb = PeakRssMb();

  result.op_times = Summarize(op_s);
  const double ops = static_cast<double>(op_s.size());
  result.accuracy = Median(accuracies);
  result.Detail("ooc_train_s", result.op_times.p50, "s");
  result.Detail("ooc_accuracy", result.accuracy, "frac");
  result.Detail("ooc_budget_mb", static_cast<double>(budget_bytes) / (1 << 20),
                "MB");
  FillCommonLayers(ledger, ops, &result);
  FillTrainLayers(ledger, static_cast<double>(steps), &result);
  if (ledger.enabled() && ops > 0.0) {
    result.layer["train.store_admissions"] = admissions / ops;
    result.layer["train.store_evictions"] = evictions / ops;
    result.layer["train.store_admissions_per_kstep"] =
        steps > 0 ? admissions / ops / (static_cast<double>(steps) / 1e3)
                  : 0.0;
    result.layer["train.store_max_resident_mb"] = max_resident / (1 << 20);
  }
  return result;
}

}  // namespace perfbench
