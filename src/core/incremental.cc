#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <optional>
#include <utility>

#include "core/estep_body.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/parallel.h"
#include "util/random.h"

namespace deepdirect::core {

using graph::MixedSocialNetwork;
using graph::NodeId;

namespace {

// Salt separating new-row initialization streams from the pattern
// precompute's per-arc streams (both key on (seed, arc index)).
constexpr uint64_t kNewRowSalt = 0x9e3779b97f4a7c15ULL;

util::Status BatchLineError(const train::TieDelta& tie,
                            const std::string& what) {
  return util::Status::InvalidArgument(
      "batch line " + std::to_string(tie.line) + ": tie " +
      std::to_string(tie.u) + " " + std::to_string(tie.v) + " " + what);
}

}  // namespace

std::vector<train::TieDelta> ExtractTies(const MixedSocialNetwork& g) {
  std::vector<train::TieDelta> ties;
  ties.reserve(g.num_ties());
  for (graph::ArcId id = 0; id < g.num_arcs(); ++id) {
    const graph::Arc& a = g.arc(id);
    // Each tie once: directed arcs are unique; twins from the smaller
    // endpoint (the WriteEdgeList convention).
    if (a.type != graph::TieType::kDirected && a.src > a.dst) continue;
    ties.push_back({a.src, a.dst, a.type,
                    static_cast<uint32_t>(ties.size() + 1)});
  }
  return ties;
}

util::Result<IncrementalUpdate> DeepDirectModel::ApplyTieBatch(
    const MixedSocialNetwork& g, const train::TieBatch& batch,
    const train::EStepState& state, const DeepDirectConfig& config,
    const IncrementalOptions& options) {
  obs::PhaseScope update_phase("update.apply");
  const size_t l = config.dimensions;

  // --- Validate the warm-start state against the base network. ---------
  if (l == 0 || state.dimensions != l) {
    return util::Status::InvalidArgument(
        "E-step state has " + std::to_string(state.dimensions) +
        " dimensions, the config asks for " + std::to_string(l));
  }
  if (options.epochs_per_batch < 0.0) {
    return util::Status::InvalidArgument(
        "epochs_per_batch must be non-negative");
  }
  if (g.num_directed_ties() == 0) {
    return util::Status::InvalidArgument(
        "the base network has no directed ties");
  }
  if (state.m.size() != state.num_arcs * l ||
      state.n.size() != state.m.size() ||
      state.w_prime.size() != l) {
    return util::Status::InvalidArgument(
        "inconsistent E-step state (m " + std::to_string(state.m.size()) +
        ", n " + std::to_string(state.n.size()) + ", w_prime " +
        std::to_string(state.w_prime.size()) + " for " +
        std::to_string(state.num_arcs) + " arcs x " + std::to_string(l) +
        " dims)");
  }
  const TieIndex old_idx(g);
  if (state.num_arcs != old_idx.num_arcs()) {
    return util::Status::InvalidArgument(
        "E-step state covers " + std::to_string(state.num_arcs) +
        " closure arcs but the base network has " +
        std::to_string(old_idx.num_arcs()) +
        " (wrong checkpoint for this network?)");
  }
  if (state.tie_hash != HashTieIndex(old_idx)) {
    return util::Status::InvalidArgument(
        "E-step state was trained on a different network (tie-index hash "
        "mismatch at equal arc count)");
  }

  // --- Validate the batch and splice the merged network. ---------------
  std::optional<obs::PhaseScope> phase;
  phase.emplace("update.splice");
  size_t num_nodes = std::max(g.num_nodes(), batch.declared_nodes);
  for (const train::TieDelta& tie : batch.ties) {
    if (tie.u == tie.v) return BatchLineError(tie, "is a self-loop");
    num_nodes = std::max({num_nodes, static_cast<size_t>(tie.u) + 1,
                          static_cast<size_t>(tie.v) + 1});
    if (tie.u < g.num_nodes() && tie.v < g.num_nodes() &&
        (g.HasArc(tie.u, tie.v) || g.HasArc(tie.v, tie.u))) {
      return BatchLineError(tie, "already exists in the network");
    }
  }

  graph::GraphBuilder builder(num_nodes);
  builder.SetNumThreads(config.num_threads);
  for (const train::TieDelta& tie : ExtractTies(g)) {
    const util::Status status = builder.AddTie(tie.u, tie.v, tie.type);
    DD_CHECK_MSG(status.ok(), "re-adding a base tie failed: "
                                  << status.ToString());
  }
  for (const train::TieDelta& tie : batch.ties) {
    // Parse-level validation already rejected in-batch duplicates; this
    // guards programmatically-built batches with the same line anchoring.
    const util::Status status = builder.AddTie(tie.u, tie.v, tie.type);
    if (!status.ok()) {
      return BatchLineError(tie, "rejected: " + status.ToString());
    }
  }
  // The batch's `# nodes` line, which the grammar accepts up to 2^32 - 1,
  // sizes the per-node arrays; nothing has been written yet. The network's
  // 8-byte offsets go first, so a count too large fails before the 1-byte
  // `touched` flags are zero-filled.
  std::optional<MixedSocialNetwork> built;
  std::vector<uint8_t> touched;
  try {
    built.emplace(std::move(builder).Build());
    touched.assign(num_nodes, 0);
  } catch (const std::bad_alloc&) {
    return util::Status::ResourceExhausted(
        "cannot allocate the per-node arrays of the merged network's " +
        std::to_string(num_nodes) + " nodes");
  }
  MixedSocialNetwork merged = std::move(*built);
  TieIndex merged_index(merged);
  const size_t num_arcs = merged_index.num_arcs();
  std::unique_ptr<DeepDirectModel> model(
      new DeepDirectModel(std::move(merged_index), num_arcs, l));
  const TieIndex& idx = model->index_;

  // --- Warm-start: remap surviving rows, init new ones. -----------------
  // Adding ties shifts dense arc indices, so every old row is routed
  // through the new index; an old arc always survives (ties are only
  // added), so IndexOf is total here.
  ml::Matrix& m = model->embeddings_;
  ml::Matrix n(num_arcs, l);
  std::vector<uint8_t> is_new(num_arcs, 1);
  for (size_t e_old = 0; e_old < old_idx.num_arcs(); ++e_old) {
    const auto [u, v] = old_idx.ArcAt(e_old);
    const size_t e_new = idx.IndexOf(u, v);
    is_new[e_new] = 0;
    std::copy_n(state.m.begin() + e_old * l, l, m.Row(e_new).begin());
    std::copy_n(state.n.begin() + e_old * l, l, n.Row(e_new).begin());
  }
  const float init = 0.5f / static_cast<float>(l);
  for (size_t e = 0; e < num_arcs; ++e) {
    if (!is_new[e]) continue;
    // Same ±0.5/l init as a fresh run, drawn from a per-arc counter RNG
    // so the rows are independent of batch order and thread count.
    util::Rng row_rng(train::PerItemSeed(config.seed ^ kNewRowSalt, e));
    for (float& value : m.Row(e)) {
      value = static_cast<float>(row_rng.NextDoubleIn(-init, init));
    }
    // New N rows start at zero (already zeroed by the Matrix ctor).
  }

  // --- Affected set A: new arcs ∪ arcs with a touched endpoint. ---------
  for (const train::TieDelta& tie : batch.ties) {
    touched[tie.u] = 1;
    touched[tie.v] = 1;
  }
  std::vector<uint32_t> affected;
  std::vector<uint8_t> affected_mask(num_arcs, 0);
  for (size_t e = 0; e < num_arcs; ++e) {
    const auto [u, v] = idx.ArcAt(e);
    if (touched[u] || touched[v]) {
      affected_mask[e] = 1;
      affected.push_back(static_cast<uint32_t>(e));
    }
  }

  TieBatchStats stats;
  stats.new_ties = batch.ties.size();
  stats.new_nodes = num_nodes - g.num_nodes();
  stats.new_arcs = num_arcs - old_idx.num_arcs();
  stats.affected_arcs = affected.size();
  for (const uint32_t e : affected) {
    stats.affected_pair_mass += idx.TieDegree(e);
  }

  // --- Incremental E-step over A under the per-batch quota. -------------
  // The joint classifier (w′, b′) as the driver's dense block, laid out
  // as in the full trainer.
  std::vector<double> classifier = state.w_prime;
  classifier.push_back(state.b_prime);
  const uint64_t quota = static_cast<uint64_t>(
      std::ceil(options.epochs_per_batch *
                static_cast<double>(stats.affected_pair_mass)));
  internal::MatrixRows rows{m, n};
  if (quota > 0 && stats.affected_pair_mass > 0) {
    phase.emplace("update.patterns");
    const PatternPrecompute patterns =
        PrecomputePatterns(merged, idx, config, affected_mask);

    phase.emplace("update.estep");
    const internal::Samplers samplers(
        idx, config.uniform_negative_sampling, std::move(affected));

    // The embedding is already shaped by the base run, so the classifier
    // losses apply at full strength from the first step — warming them up
    // again would waste most of a small quota on the topology term alone.
    DeepDirectConfig step_config = config;
    step_config.classifier_warmup_fraction = 0.0;

    // Chained batches must not replay one RNG stream; keying on the state
    // generation keeps each update deterministic yet distinct.
    const uint64_t stream_seed =
        train::PerItemSeed(config.seed, state.epochs_done);
    util::Rng rng(stream_seed);
    internal::RunEStep(
        internal::EStepEnv<internal::MatrixRows>{idx, patterns, rows,
                                                 samplers},
        internal::EStepOptions(config, quota, stream_seed, classifier,
                               "update.estep"),
        step_config, rng);
    stats.estep_steps = quota;
  }
  model->e_step_weights_.assign(classifier.begin(), classifier.begin() + l);
  model->e_step_bias_ = classifier[l];

  // --- D-step: full retrain over labeled arcs, warm-started like a full
  // run. The incremental path is self-contained: it neither writes nor
  // resumes D-step checkpoints.
  phase.emplace("update.dstep");
  ml::LogisticRegressionConfig d_config = config.d_step;
  d_config.checkpoint = {};
  model->d_step_ = internal::TrainDStep(rows, idx, classifier, d_config);

  if (obs::Enabled()) {
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("update.batches")->Add(1);
    registry.GetCounter("update.new_ties")->Add(stats.new_ties);
    registry.GetCounter("update.new_nodes")->Add(stats.new_nodes);
    registry.GetCounter("update.new_arcs")->Add(stats.new_arcs);
    registry.GetCounter("update.affected_arcs")->Add(stats.affected_arcs);
    registry.GetCounter("update.estep_steps")->Add(stats.estep_steps);
  }

  train::EStepState next;
  next.dimensions = l;
  next.num_arcs = num_arcs;
  next.m = m.data();  // copy: the model keeps its embedding
  next.n = std::move(n.data());
  next.w_prime = model->e_step_weights_;
  next.b_prime = model->e_step_bias_;
  next.tie_hash = HashTieIndex(idx);
  next.epochs_done = state.epochs_done + 1;
  return IncrementalUpdate{std::move(merged), std::move(model),
                           std::move(next), stats};
}

}  // namespace deepdirect::core
