#include "embedding/line.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/kernels.h"
#include "train/sgd_driver.h"
#include "util/alias_table.h"

namespace deepdirect::embedding {

using graph::ArcId;
using graph::MixedSocialNetwork;
using graph::NodeId;

namespace {

// Noise distribution over nodes, P(u) ∝ deg(u)^{3/4} with the undirected
// degree (standard word2vec/LINE choice, +1 smoothing against isolated
// nodes).
util::AliasTable BuildNodeNoiseTable(const MixedSocialNetwork& g) {
  std::vector<double> weights(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    weights[u] = std::pow(static_cast<double>(g.UndirectedDegree(u)) + 1.0,
                          0.75);
  }
  return util::AliasTable(weights);
}

// The obs registry prefix of every LINE run.
constexpr char kMetricsPrefix[] = "train.line";

// One negative-sampling SGD step on (source row, target row) with the given
// positive/negative label, shared by both proximity orders. Accumulates the
// source-row gradient into `source_grad`; updates the target row in place.
// Parameter access goes through the driver's policy `A` so the same body
// serves the serial and Hogwild paths. Returns the pair's cross-entropy
// when `loss` is set (the driver sampled the step), else 0.
template <typename A>
double NegSamplingStep(std::span<float> source, std::span<float> target,
                       double label, double lr,
                       std::vector<double>& source_grad, bool loss) {
  // Fused kernel: g = −lr·(σ(score) − label) ≡ (label − σ)·lr, target +=
  // g·source, source gradient accumulated in the same pass.
  const double score = kernels::NegSamplingUpdate<A>(
      source_grad, source, target, label, /*grad_scale=*/-lr,
      /*update_scale=*/1.0);
  if (!loss) return 0.0;
  return -ml::LogSigmoid(label > 0.0 ? score : -score);
}

}  // namespace

LineEmbedding LineEmbedding::Train(const MixedSocialNetwork& g,
                                   const LineConfig& config) {
  DD_CHECK_EQ(config.dimensions % 2, 0u);
  DD_CHECK_GT(g.num_arcs(), 0u);
  const size_t half = config.dimensions / 2;

  util::Rng rng(config.seed);
  ml::Matrix first(g.num_nodes(), half);
  ml::Matrix first_ctx(g.num_nodes(), half);   // first-order "other side"
  ml::Matrix second(g.num_nodes(), half);
  ml::Matrix second_ctx(g.num_nodes(), half);  // second-order contexts

  const float init = 0.5f / static_cast<float>(half);
  first.FillUniform(rng, -init, init);
  second.FillUniform(rng, -init, init);
  // Context matrices start at zero, as in the reference implementation.

  const util::AliasTable noise = BuildNodeNoiseTable(g);

  train::SgdOptions options;
  options.steps =
      static_cast<uint64_t>(config.samples_per_arc) * g.num_arcs();
  options.num_threads = config.num_threads;
  options.lr = config.Schedule();
  options.shard_seed = config.seed;
  // One "epoch" is num_arcs samples (one expected pass over the arcs).
  options.steps_per_epoch = g.num_arcs();
  options.metrics_prefix = kMetricsPrefix;

  train::CheckpointOptions ckpt_options = config.checkpoint;
  if (ckpt_options.trainer.empty()) ckpt_options.trainer = "line";
  // Only a checkpointed run hashes its input: the arcs' endpoints, field by
  // field.
  train::InputHash input;
  if (!ckpt_options.dir.empty()) {
    for (ArcId id = 0; id < g.num_arcs(); ++id) {
      input.Add(g.arc(id).src);
      input.Add(g.arc(id).dst);
    }
  }
  train::Checkpointer checkpointer(
      ckpt_options,
      train::RunShape{options.steps, options.steps_per_epoch, config.seed,
                      options.lr, input.value()},
      train::kLineCheckpoint,
      {std::as_writable_bytes(std::span(first.data())),
       std::as_writable_bytes(std::span(first_ctx.data())),
       std::as_writable_bytes(std::span(second.data())),
       std::as_writable_bytes(std::span(second_ctx.data()))});
  options.start_epoch = checkpointer.Resume(rng);
  options.checkpointer = &checkpointer;

  train::SgdDriver driver(options);

  std::vector<std::vector<double>> grad_scratch(
      driver.num_workers(), std::vector<double>(half, 0.0));

  driver.Run(rng, [&](auto access, const train::SgdStep& ctx) -> double {
    using A = decltype(access);
    std::vector<double>& source_grad = grad_scratch[ctx.worker];
    util::Rng& r = ctx.rng;
    const double lr = ctx.lr;

    // Arcs are unit-weight: uniform arc sampling == LINE's edge sampling.
    // Orientation is randomized so both endpoints receive vertex-side
    // updates regardless of the mix of directed vs twin arcs (proximity in
    // LINE is direction-agnostic; see the paper's critique in Sec. 4 that
    // node embeddings cannot exploit directionality).
    const ArcId arc_id = static_cast<ArcId>(r.NextIndex(g.num_arcs()));
    NodeId u = g.arc(arc_id).src;
    NodeId v = g.arc(arc_id).dst;
    if (r.NextBool(0.5)) std::swap(u, v);

    // --- First order: symmetric affinity between endpoint vectors.
    const bool loss = ctx.sample_loss;
    double step_loss = 0.0;
    std::fill(source_grad.begin(), source_grad.end(), 0.0);
    step_loss += NegSamplingStep<A>(first.Row(u), first_ctx.Row(v), 1.0, lr,
                                    source_grad, loss);
    for (size_t neg = 0; neg < config.negative_samples; ++neg) {
      const NodeId noise_node = static_cast<NodeId>(noise.Sample(r));
      if (noise_node == v || noise_node == u) continue;
      step_loss += NegSamplingStep<A>(first.Row(u), first_ctx.Row(noise_node),
                                      0.0, lr, source_grad, loss);
    }
    kernels::ApplyGrad<A>(first.Row(u), source_grad);

    // --- Second order: vertex u against context v.
    std::fill(source_grad.begin(), source_grad.end(), 0.0);
    step_loss += NegSamplingStep<A>(second.Row(u), second_ctx.Row(v), 1.0, lr,
                                    source_grad, loss);
    for (size_t neg = 0; neg < config.negative_samples; ++neg) {
      const NodeId noise_node = static_cast<NodeId>(noise.Sample(r));
      if (noise_node == v) continue;
      step_loss += NegSamplingStep<A>(second.Row(u),
                                      second_ctx.Row(noise_node), 0.0, lr,
                                      source_grad, loss);
    }
    kernels::ApplyGrad<A>(second.Row(u), source_grad);
    return static_cast<double>(train::kLossSampleSteps) * step_loss;
  });

  return LineEmbedding(std::move(first), std::move(second));
}

void LineEmbedding::NodeVector(NodeId u, std::span<double> out) const {
  DD_CHECK_EQ(out.size(), dimensions());
  const auto f = first_.Row(u);
  const auto s = second_.Row(u);
  for (size_t k = 0; k < f.size(); ++k) out[k] = f[k];
  for (size_t k = 0; k < s.size(); ++k) out[f.size() + k] = s[k];
}

}  // namespace deepdirect::embedding
