#include "core/sharded_trainer.h"

#include <optional>
#include <utility>

#include "core/estep_body.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace deepdirect::core {

using graph::MixedSocialNetwork;
using graph::NodeId;

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

  obs::PhaseScope train_phase("deepdirect.train");
  std::optional<obs::PhaseScope> phase;
  phase.emplace("deepdirect.preprocess");
  TieIndex index(g);
  const size_t l = config.dimensions;
  util::Rng rng(config.seed);
  const PatternPrecompute patterns = PrecomputePatterns(g, index, config);

  // --- Spill M and N into the store ----------------------------------------
  phase.emplace("deepdirect.sharded.create_store");
  train::ShardedStoreOptions store_options;
  store_options.dir = config.sharding.dir;
  store_options.num_shards = config.sharding.num_shards;
  store_options.ram_budget_bytes =
      static_cast<uint64_t>(config.sharding.ram_budget_mb) << 20;
  // The embedding fill consumes `rng` in the ml::Matrix::FillUniform draw
  // order — the same draws at the same point in the stream as the in-RAM
  // trainer, the first leg of the bit-identity contract.
  const float init_bound = 0.5f / static_cast<float>(l);
  auto created = train::ShardedStore::Create(
      store_options, {index.num_arcs(), HashTieIndex(index), l}, rng,
      -init_bound, init_bound);
  if (!created.ok()) return created.status();
  std::unique_ptr<ShardedDeepDirectModel> model(
      new ShardedDeepDirectModel(std::move(index), std::move(created).value()));
  const TieIndex& idx = model->index_;
  train::ShardedStore& store = *model->store_;

  // --- E-Step ---------------------------------------------------------------
  phase.emplace("deepdirect.estep");
  std::vector<double> classifier(l + 1, 0.0);
  internal::Samplers samplers(idx, config.uniform_negative_sampling);
  const uint64_t iterations = static_cast<uint64_t>(
      config.epochs * static_cast<double>(idx.NumConnectedTiePairs()));
  train::SgdOptions options = internal::EStepOptions(
      config, iterations, config.seed, classifier, "train.deepdirect.estep");
  options.steps_per_epoch = idx.NumConnectedTiePairs();
  // Hogwild samples each step's source from its worker's shard. The
  // serial path never consults the plan (global sampling), so nt=1 output
  // does not depend on the shard count.
  if (config.num_threads != 1 && store.num_shards() > 1) {
    options.shard_plan = samplers.PlanShards(idx, store);
  }
  internal::RunEStep(
      internal::EStepEnv<train::ShardedStore&>{idx, patterns, store, samplers},
      options, config, rng);

  // Seal the store: stamps CRCs and the sealed flag so the trained
  // parameters validate byte-for-byte and the directory can be reopened.
  DD_RETURN_NOT_OK(store.Seal());
  model->e_step_weights_.assign(classifier.begin(), classifier.begin() + l);
  model->e_step_bias_ = classifier[l];

  // The D-step reads the labeled rows back out of the store, admitting
  // their pages under the budget.
  phase.emplace("deepdirect.dstep");
  model->d_step_ = internal::TrainDStep(store, idx, classifier, config.d_step);

  // Residency over the whole run, in pages: the E-step, the Seal()
  // release and the D-step's re-admissions. Reads no Rng.
  if (obs::Enabled()) {
    const train::ShardedStore::Stats stats = store.GetStats();
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
  return d_step_.PredictRow(store_->EmbRow(index_.IndexOf(u, v)));
}

util::Result<double> ShardedDeepDirectModel::TryDirectionality(
    NodeId u, NodeId v) const {
  DD_RETURN_NOT_OK(index_.CheckTie(u, v));
  return Directionality(u, v);
}

}  // namespace deepdirect::core
