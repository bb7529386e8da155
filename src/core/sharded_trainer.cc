#include "core/sharded_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "core/estep_body.h"
#include "ml/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/sgd_driver.h"
#include "util/alias_table.h"
#include "util/random.h"

namespace deepdirect::core {

using graph::MixedSocialNetwork;
using graph::NodeId;

namespace {

// Storage environment adapting the mmap-backed ShardedStore to the shared
// E-step body — the out-of-core twin of InRamEnv in deepdirect.cc. Row
// spans point into MAP_SHARED mappings; the arithmetic against them is
// identical to the heap case by construction.
struct StoreEnv {
  train::ShardedStore& store;
  const util::AliasTable& source_table;
  const util::AliasTable& noise_table;
  // Shard-affine source sampling (Hogwild only): per-shard P_c restricted
  // to the shard's arcs, plus a mass flag — a shard whose every tie has an
  // empty c(e) must fall back to the global table or the resample loop in
  // the step body would spin forever inside the shard.
  const std::vector<util::AliasTable>& shard_tables;
  const std::vector<uint8_t>& shard_has_mass;

  size_t num_arcs() const { return store.num_arcs(); }
  std::span<float> MRow(size_t e) { return store.EmbRow(e); }
  std::span<float> NRow(size_t e) { return store.ConnRow(e); }
  size_t SampleSource(const train::SgdStep& ctx, util::Rng& r) const {
    const size_t s = ctx.shard;
    if (s == train::kNoShard || shard_tables.empty() ||
        shard_has_mass[s] == 0) {
      return source_table.Sample(r);
    }
    return static_cast<size_t>(store.ShardArcBegin(s)) +
           shard_tables[s].Sample(r);
  }
  size_t SampleNoise(util::Rng& r) const { return noise_table.Sample(r); }
  size_t SampleConnectedTie(size_t e, util::Rng& r) const {
    return store.SampleConnectedTie(e, r);
  }
  ArcClass ClassOf(size_t e) const {
    return static_cast<ArcClass>(store.ClassByte(e));
  }
  bool IsLabeled(size_t e) const {
    const ArcClass c = ClassOf(e);
    return c == ArcClass::kLabeledPositive || c == ArcClass::kLabeledNegative;
  }
  double Label(size_t e) const {
    return ClassOf(e) == ArcClass::kLabeledPositive ? 1.0 : 0.0;
  }
  uint32_t TieDegreeOf(size_t e) const { return store.TieDegree(e); }
  train::ShardedStore::PatternView Pattern(size_t e) const {
    return store.Pattern(e);
  }
};

}  // namespace

util::Result<std::unique_ptr<ShardedDeepDirectModel>>
ShardedDeepDirectModel::Train(const MixedSocialNetwork& g,
                              const DeepDirectConfig& config) {
  DD_CHECK_GT(g.num_directed_ties(), 0u);
  DD_CHECK_GT(config.dimensions, 0u);
  DD_CHECK_GE(config.epochs, 0.0);
  if (config.sharding.num_shards == 0 || config.sharding.dir.empty()) {
    return util::Status::InvalidArgument(
        "sharded training requires sharding.num_shards > 0 and a store "
        "directory");
  }
  if (!config.checkpoint.dir.empty()) {
    return util::Status::InvalidArgument(
        "checkpointing is not supported out-of-core (the shard store is "
        "the durable E-step state)");
  }

  obs::PhaseScope train_phase("deepdirect.sharded.train");
  std::optional<obs::PhaseScope> phase;
  phase.emplace("deepdirect.sharded.preprocess");
  const TieIndex idx(g);
  const size_t num_arcs = idx.num_arcs();
  const size_t l = config.dimensions;

  util::Rng rng(config.seed);

  const PatternPrecompute patterns = PrecomputePatterns(g, idx, config);

  // --- Spill everything the E-step reads into the store -------------------
  phase.emplace("deepdirect.sharded.create_store");
  static_assert(sizeof(NodeId) == sizeof(uint32_t));
  static_assert(sizeof(ArcClass) == sizeof(uint8_t));
  static_assert(sizeof(std::pair<uint32_t, uint32_t>) ==
                    sizeof(graph::shard::TriadPair),
                "TriadPair must be layout-compatible with the arena pairs");
  train::ShardedStoreInit init;
  init.offsets = idx.Offsets();
  init.adjacency = {reinterpret_cast<const uint32_t*>(idx.Adjacency().data()),
                    idx.Adjacency().size()};
  init.sources = {reinterpret_cast<const uint32_t*>(idx.Sources().data()),
                  idx.Sources().size()};
  init.classes = {reinterpret_cast<const uint8_t*>(idx.RawClasses().data()),
                  idx.RawClasses().size()};
  init.num_connected_pairs = idx.NumConnectedTiePairs();
  init.arc_hash = HashTieIndex(idx);
  init.dimensions = l;
  init.slot = patterns.slot;
  init.degree_pseudo_label = patterns.degree_pseudo_label;
  init.degree_active = patterns.degree_active;
  init.triad_offsets = patterns.triad_offsets;
  init.triad_pairs = {reinterpret_cast<const graph::shard::TriadPair*>(
                          patterns.triad_pairs.data()),
                      patterns.triad_pairs.size()};

  train::ShardedStoreOptions store_options;
  store_options.dir = config.sharding.dir;
  store_options.num_shards = config.sharding.num_shards;
  store_options.ram_budget_bytes =
      static_cast<uint64_t>(config.sharding.ram_budget_mb) << 20;

  // The embedding fill consumes `rng` in the ml::Matrix::FillUniform draw
  // order — the same draws at the same point in the stream as the in-RAM
  // trainer, the first leg of the bit-identity contract.
  const float init_bound = 0.5f / static_cast<float>(l);
  auto store_result = train::ShardedStore::Create(store_options, init, rng,
                                                  -init_bound, init_bound);
  if (!store_result.ok()) return store_result.status();
  std::unique_ptr<train::ShardedStore> store =
      std::move(store_result).value();

  // --- E-Step -------------------------------------------------------------
  phase.emplace("deepdirect.sharded.estep");
  // The joint classifier (w′, b′) as the driver's dense block, laid out
  // as in the in-RAM trainer.
  std::vector<double> classifier(l + 1, 0.0);

  // Sampling distributions over closure arcs, built exactly as the in-RAM
  // trainer builds them (same weights, same fallback).
  std::vector<double> pc_weights(num_arcs);
  std::vector<double> pn_weights(num_arcs);
  for (size_t e = 0; e < num_arcs; ++e) {
    const double deg = idx.TieDegree(e);
    pc_weights[e] = deg;
    pn_weights[e] = config.uniform_negative_sampling
                        ? 1.0
                        : std::pow(deg + 1.0, 0.75);
  }
  double pc_total = 0.0;
  for (double w : pc_weights) pc_total += w;
  if (pc_total <= 0.0) std::fill(pc_weights.begin(), pc_weights.end(), 1.0);
  const util::AliasTable source_table(pc_weights);
  const util::AliasTable noise_table(pn_weights);

  // Shard-affine sampling for Hogwild: per-shard P_c over the shard's arc
  // range, with the shard's total P_c mass as its step-apportionment
  // weight. The serial path never consults any of this (global sampling →
  // nt=1 output is independent of the shard count).
  const size_t num_shards = store->num_shards();
  std::vector<util::AliasTable> shard_tables;
  std::vector<uint8_t> shard_has_mass;
  train::ShardPlan plan;
  if (config.num_threads != 1 && num_shards > 1) {
    plan.num_shards = num_shards;
    plan.shard_weights.resize(num_shards, 0.0);
    shard_has_mass.resize(num_shards, 0);
    shard_tables.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t begin = static_cast<size_t>(store->ShardArcBegin(s));
      const size_t end = static_cast<size_t>(store->ShardArcEnd(s));
      std::vector<double> slice(pc_weights.begin() + begin,
                                pc_weights.begin() + end);
      double mass = 0.0;
      for (double w : slice) mass += w;
      plan.shard_weights[s] = mass;
      shard_has_mass[s] = mass > 0.0 ? 1 : 0;
      if (mass <= 0.0) std::fill(slice.begin(), slice.end(), 1.0);
      shard_tables.emplace_back(slice);
    }
  }

  const uint64_t iterations = static_cast<uint64_t>(
      config.epochs * static_cast<double>(idx.NumConnectedTiePairs()));
  const bool track_loss =
      static_cast<bool>(config.progress) || obs::Enabled();

  train::SgdOptions options;
  options.steps = iterations;
  options.num_threads = config.num_threads;
  options.lr = config.Schedule();
  options.shard_seed = config.seed;
  options.steps_per_epoch = idx.NumConnectedTiePairs();
  options.progress = config.progress;
  options.report_every = config.report_every;
  options.metrics_prefix = "train.deepdirect.sharded.estep";
  options.shard_plan = std::move(plan);
  options.dense = classifier;

  train::SgdDriver driver(options);

  std::vector<std::vector<double>> grad_scratch(
      driver.num_workers(), std::vector<double>(l, 0.0));
  std::vector<internal::EStepTally> tallies(driver.num_workers());

  StoreEnv env{*store, source_table, noise_table, shard_tables,
               shard_has_mass};
  driver.Run(rng, [&](auto access, const train::SgdStep& ctx) -> double {
    using A = decltype(access);
    return internal::EStepStep<A>(env, ctx, config, iterations, track_loss,
                                  grad_scratch[ctx.worker],
                                  tallies[ctx.worker]);
  });

  internal::FlushTallies(tallies);

  // Seal the store: stamps CRCs and the sealed flag so the trained
  // parameters validate byte-for-byte and the directory can be reopened.
  DD_RETURN_NOT_OK(store->Seal());

  std::unique_ptr<ShardedDeepDirectModel> model(
      new ShardedDeepDirectModel(std::move(store)));
  model->e_step_weights_.assign(classifier.begin(), classifier.begin() + l);
  model->e_step_bias_ = classifier[l];

  // --- D-Step: same warm-started logistic regression as in-RAM, reading
  // labeled rows back out of the store (faulting shards in under the
  // budget — the dataset itself is only |labeled|×l doubles).
  phase.emplace("deepdirect.sharded.dstep");
  ml::Dataset data(l);
  std::vector<double> features(l);
  for (size_t e = 0; e < num_arcs; ++e) {
    if (!idx.IsLabeled(e)) continue;
    const auto row = model->store_->EmbRow(e);
    for (size_t k = 0; k < l; ++k) features[k] = row[k];
    data.Add(features, idx.Label(e));
  }
  model->d_step_ =
      ml::LogisticRegression(model->e_step_weights_, model->e_step_bias_);
  model->d_step_.Train(data, config.d_step);

  // Residency over the whole run, in pages: the E-step, the Seal()
  // release and the D-step's re-admissions. Reads no Rng.
  if (obs::Enabled()) {
    const train::ShardedStore::Stats stats = model->store_->GetStats();
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("train.store.admissions")->Add(stats.admissions);
    registry.GetCounter("train.store.evictions")->Add(stats.evictions);
    registry.GetGauge("train.store.resident_bytes")
        ->Set(static_cast<double>(stats.resident_bytes));
    registry.GetGauge("train.store.max_resident_bytes")
        ->Set(static_cast<double>(stats.max_resident_bytes));
    registry.GetGauge("train.store.budget_bytes")
        ->Set(static_cast<double>(stats.budget_bytes));
  }
  return model;
}

double ShardedDeepDirectModel::Directionality(NodeId u, NodeId v) const {
  const size_t e = store_->TryIndexOf(u, v);
  DD_CHECK_LT(e, store_->num_arcs());
  const auto row = store_->EmbRow(e);
  std::vector<double> features(row.size());
  for (size_t k = 0; k < row.size(); ++k) features[k] = row[k];
  return d_step_.Predict(features);
}

util::Result<double> ShardedDeepDirectModel::TryDirectionality(
    NodeId u, NodeId v) const {
  if (u >= store_->num_nodes() ||
      store_->TryIndexOf(u, v) == store_->num_arcs()) {
    return util::Status::NotFound(
        "no tie between " + std::to_string(u) + " and " + std::to_string(v) +
        " in the training network");
  }
  return Directionality(u, v);
}

}  // namespace deepdirect::core
