// The E-step SGD step body (Algorithm 1, lines 12–15), shared between the
// in-RAM trainer (core/deepdirect.cc) and the out-of-core sharded trainer
// (core/sharded_trainer.cc).
//
// The body is templated over a storage environment `Env` so the identical
// float arithmetic runs against heap matrices or mmap-backed shard rows.
// Bit-identity between the two trainers at num_threads = 1 rests on this
// file being the single definition of the step: same kernel calls in the
// same order, same RNG draw sequence (SampleSource → SampleConnectedTie →
// per-negative SampleNoise), same classifier/warmup arithmetic.
//
// Env contract (duck-typed; see InRamEnv / StoreEnv at the call sites):
//   size_t num_arcs()
//   std::span<float> MRow(size_t e), NRow(size_t e)
//   size_t SampleSource(const train::SgdStep&, util::Rng&)  — P_c draw;
//       shard-affine envs may consult SgdStep::shard
//   size_t SampleNoise(util::Rng&)                          — P_n draw
//   size_t SampleConnectedTie(size_t e, util::Rng&)         — num_arcs()
//       when c(e) is empty
//   ArcClass ClassOf(e); bool IsLabeled(e); double Label(e)
//   uint32_t TieDegreeOf(e)
//   Pattern(e) → any type with fields {bool degree_active;
//       double pseudo_label; <range of .first/.second pairs> triads}
//
// MRow/NRow may do residency bookkeeping (the shard store admits and marks
// referenced every page a row spans); nothing in the contract counts steps,
// and no member other than the samplers draws from an Rng.

#ifndef DEEPDIRECT_CORE_ESTEP_BODY_H_
#define DEEPDIRECT_CORE_ESTEP_BODY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/tie_index.h"
#include "kernels/kernels.h"
#include "ml/matrix.h"
#include "obs/metrics.h"
#include "train/sgd_driver.h"
#include "util/random.h"

namespace deepdirect::core::internal {

// Bound on negative-sample redraws after a collision with the positive
// context. The noise distribution covers every closure arc, so a redraw
// almost surely escapes in one draw; the bound only guards degenerate
// networks where the positive context carries nearly all the noise mass.
inline constexpr size_t kMaxNegativeRedraws = 32;

// Per-worker E-Step sampler tallies, accumulated with plain increments in
// the step body (each worker owns one padded slot) and flushed into obs
// counters once after the run — the hot loop never touches shared metrics.
struct alignas(64) EStepTally {
  uint64_t resamples = 0;       ///< leaf-destination pair redraws
  uint64_t neg_collisions = 0;  ///< negative draw hit the positive context
  uint64_t negatives = 0;       ///< negatives actually trained on
  uint64_t labeled = 0;         ///< steps whose source arc is labeled
  uint64_t degree_pattern = 0;  ///< steps with the degree pattern active
  uint64_t triad_pattern = 0;   ///< steps with a non-empty triad set
};

inline void FlushTallies(const std::vector<EStepTally>& tallies) {
  if (!obs::Enabled()) return;
  EStepTally total;
  for (const EStepTally& t : tallies) {
    total.resamples += t.resamples;
    total.neg_collisions += t.neg_collisions;
    total.negatives += t.negatives;
    total.labeled += t.labeled;
    total.degree_pattern += t.degree_pattern;
    total.triad_pattern += t.triad_pattern;
  }
  obs::Registry& registry = obs::Registry::Default();
  registry.GetCounter("deepdirect.estep.sampler.resamples")
      ->Add(total.resamples);
  registry.GetCounter("deepdirect.estep.sampler.negative_collisions")
      ->Add(total.neg_collisions);
  registry.GetCounter("deepdirect.estep.sampler.negatives_trained")
      ->Add(total.negatives);
  registry.GetCounter("deepdirect.estep.sampler.labeled_steps")
      ->Add(total.labeled);
  registry.GetCounter("deepdirect.estep.sampler.degree_pattern_steps")
      ->Add(total.degree_pattern);
  registry.GetCounter("deepdirect.estep.sampler.triad_pattern_steps")
      ->Add(total.triad_pattern);
}

/// One E-step SGD step; returns the step's loss contribution (0.0 when
/// untracked). `A` is the parameter access policy (SerialAccess or
/// HogwildAccess), `config` any DeepDirect-shaped config with the E-step
/// hyperparameters. The joint classifier is the driver's dense block
/// (ctx.dense): w′ in its first l slots, b′ in the last. Nearly every step
/// reads and rewrites all of it.
template <typename A, typename Env, typename Config>
double EStepStep(Env& env, const train::SgdStep& ctx, const Config& config,
                 uint64_t total_iterations, bool track_loss,
                 std::vector<double>& grad_m, EStepTally& tally) {
  util::Rng& r = ctx.rng;
  const std::span<double> w_prime = ctx.dense.first(ctx.dense.size() - 1);
  double& b_prime = ctx.dense.back();
  const double lr = ctx.lr;
  const double progress =
      static_cast<double>(ctx.step) / static_cast<double>(total_iterations);
  const size_t num_arcs = env.num_arcs();

  // Line 13: sample a connected tie pair (e, e'). A tie with a leaf
  // destination has no pair; resample instead of silently skipping the
  // step (P_c ∝ deg_tie never draws such a tie, so the loop only spins
  // under the uniform fallback — which requires |C(G)| > 0 to be reached
  // at all).
  size_t e = env.SampleSource(ctx, r);
  size_t e_prime = env.SampleConnectedTie(e, r);
  while (e_prime >= num_arcs) {
    ++tally.resamples;
    e = env.SampleSource(ctx, r);
    e_prime = env.SampleConnectedTie(e, r);
  }

  auto m_e = env.MRow(e);
  std::fill(grad_m.begin(), grad_m.end(), 0.0);

  double step_loss = 0.0;

  // --- L_topo: positive pair + λ negatives (Eqs. 23–25). The fused
  // kernel computes the score, accumulates the m_e gradient, and applies
  // the context update in one pass: g = σ(score) − y, row −= lr·g·m_e.
  {
    auto n_pos = env.NRow(e_prime);
    const double score = kernels::NegSamplingUpdate<A>(
        grad_m, m_e, n_pos, /*label=*/1.0, /*grad_scale=*/1.0,
        /*update_scale=*/-lr);
    if (track_loss) step_loss -= ml::LogSigmoid(score);
  }
  for (size_t neg = 0; neg < config.negative_samples; ++neg) {
    // A draw colliding with the positive context is redrawn (bounded),
    // not skipped: skipping would train those steps on fewer than λ
    // negatives and bias L_topo toward the positive term.
    size_t f = env.SampleNoise(r);
    size_t redraws = 0;
    while (f == e_prime && redraws < kMaxNegativeRedraws) {
      ++tally.neg_collisions;
      ++redraws;
      f = env.SampleNoise(r);
    }
    if (f == e_prime) continue;  // degenerate noise mass; give up
    ++tally.negatives;
    auto n_neg = env.NRow(f);
    const double score = kernels::NegSamplingUpdate<A>(
        grad_m, m_e, n_neg, /*label=*/0.0, /*grad_scale=*/1.0,
        /*update_scale=*/-lr);
    if (track_loss) step_loss -= ml::LogSigmoid(-score);
  }

  // --- Classifier losses: ∂L'/∂b' per Eq. 21, ramped in over the warmup
  // window so the topology loss shapes the embedding first.
  const double warmup_scale =
      config.classifier_warmup_fraction <= 0.0
          ? 1.0
          : std::min(1.0, progress / config.classifier_warmup_fraction);
  double g_b = 0.0;
  const ArcClass arc_class = env.ClassOf(e);
  const bool needs_prediction =
      warmup_scale > 0.0 &&
      (env.IsLabeled(e) || arc_class == ArcClass::kUndirected);
  if (needs_prediction) {
    const double score = kernels::DotF64F32<A>(A::Load(b_prime), w_prime, m_e);
    const double prediction = ml::Sigmoid(score);

    // Ablation hook: dividing by deg_tie(e) cancels the tie-degree
    // weighting that P_c sampling otherwise realizes (Eq. 19). The
    // warmup ramp multiplies in here as well.
    const double degree_scale =
        warmup_scale * (config.weight_by_tie_degree
                            ? 1.0
                            : 1.0 / std::max<double>(1.0, env.TieDegreeOf(e)));

    if (env.IsLabeled(e)) {
      ++tally.labeled;
      g_b += config.alpha * degree_scale * (prediction - env.Label(e));
    } else {
      const auto pattern = env.Pattern(e);
      if (pattern.degree_active) {
        ++tally.degree_pattern;
        g_b += config.beta * degree_scale *
               (prediction - pattern.pseudo_label);
      }
      if (!pattern.triads.empty()) {
        ++tally.triad_pattern;
        // y^t from current predictions over t(u, v) (Eq. 15).
        double y_t = 0.0;
        for (const auto& pair : pattern.triads) {
          // Both pair scores in one kernel call sharing the w' loads.
          double score_uw = 0.0;
          double score_vw = 0.0;
          kernels::DotPairF64F32<A>(A::Load(b_prime), w_prime,
                                    env.MRow(pair.first),
                                    env.MRow(pair.second), &score_uw,
                                    &score_vw);
          const double y_uw = ml::Sigmoid(score_uw);
          const double y_vw = ml::Sigmoid(score_vw);
          y_t += y_uw / std::max(y_uw + y_vw, 1e-12);
        }
        y_t /= static_cast<double>(pattern.triads.size());
        g_b += config.beta * degree_scale * (prediction - y_t);
      }
    }

    if (g_b != 0.0) {
      // Eq. 23 (classifier part) and Eq. 22, plus L2 decay on w'.
      kernels::ClassifierUpdate<A>(grad_m, w_prime, m_e, g_b, lr,
                                   config.classifier_l2);
      A::Store(b_prime, A::Load(b_prime) - lr * g_b);
    }
  }

  // Line 15: apply the accumulated embedding gradient (with row decay).
  kernels::ApplyGradDecay<A>(m_e, grad_m, lr, config.embedding_l2);

  return step_loss;
}

}  // namespace deepdirect::core::internal

#endif  // DEEPDIRECT_CORE_ESTEP_BODY_H_
