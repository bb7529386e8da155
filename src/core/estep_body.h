// The E-step (Algorithm 1, lines 10–16) and the D-step, shared by the two
// trainers: DeepDirectModel::Fit (core/deepdirect.cc), which trains with M
// and N on the heap (DeepDirectModel::Train) or out of core in a
// train::ShardedStore (ShardedDeepDirectModel::Train), and the streaming
// update DeepDirectModel::ApplyTieBatch (core/incremental.cc).
//
// One pipeline serves both:
//   * EStepEnv<Rows> — the one storage environment. Topology, classes,
//     labels and patterns come from the heap TieIndex and
//     PatternPrecompute; rows of M and N come from `Rows`: two heap
//     matrices (MatrixRows) or the mmap-backed train::ShardedStore.
//   * Samplers — P_c sources over every arc, over an update's affected
//     arcs, or over a Hogwild worker's shard; P_n noise over every arc.
//   * EStepOptions/RunEStep — the SgdDriver set-up and the run with its
//     per-worker scratch and sampler tallies.
//   * TrainDStep — the D-step, warm-started from (w′, b′).
// Each keeps what only it has: Fit its backend's checkpointing (in RAM),
// and the shard plan, Seal() and the store counters (out of core); the
// update its splice, row remap and affected set.
//
// EStepDraw and EStepTrain are templated over the environment so the
// identical float arithmetic runs against heap matrices or mmap-backed
// shard rows. Bit-identity between the in-RAM and sharded backends at
// num_threads = 1 rests on this file being the single definition of the
// step: same kernel calls in the same order, same RNG draw sequence
// (SampleSource → SampleConnectedTie → per-negative SampleNoise), same
// classifier/warmup arithmetic.
//
// A step runs in two phases, because no draw depends on M, N or (w′, b′).
// The draw phase (EStepDraw) takes every index: e and e′ with their
// resamples, then the λ negatives with their collision redraws. It
// decides from the step index whether the warmed-up classifier trains,
// counts the step's tallies, puts the result in a slot of its worker's
// ring, and announces every row the train phase will read. The train phase
// (EStepTrain) takes the oldest slot, prefetches every row it reads (m_e,
// n_e′, the noise rows and, for an undirected source, the M rows of its
// triad pairs), trains the positive and the negatives in one
// NegSamplingRows call, then the classifier and the m_e update, and
// retires what its draw phase announced.
//
// The driver calls the two phases through train::TwoPhase, and a worker
// draws further steps of its own schedule ahead of the one it trains while
// its ring has room and the rows backend asks for more (ReadAhead). The
// shard store asks while the pages a worker has announced are below its
// share of the budget, and its CLOCK passes over announced pages, so the
// pages the next few hundred steps read stay resident. MatrixRows never
// asks, so in-RAM training draws each step just before it trains it. The
// draws of every step still come in step order from the same Rng, and
// nothing the train phase writes is read by a draw, so reading ahead
// changes no output byte. The driver never draws past the end of an epoch
// chunk, where the checkpointer snapshots the serial Rng.
//
// A step computes its L_topo loss only when the driver samples it
// (SgdStep::sample_loss): 1 + λ LogSigmoids from the scores the kernel
// call already returned, scaled by train::kLossSampleSteps. The loss never
// feeds back into an update, so sampling cannot perturb training.
//
// Env contract of EStepDraw and EStepTrain (duck-typed; EStepEnv below is
// the one production env):
//   size_t num_arcs()
//   std::span<float> MRow(size_t e), NRow(size_t e)
//   void PrefetchMRow(size_t e), PrefetchNRow(size_t e)  — cache hints:
//       no residency bookkeeping, no value changes (may do nothing)
//   void AnnounceMRow(size_t worker, size_t e), AnnounceNRow(...),
//        RetireMRow(size_t worker, size_t e), RetireNRow(...)
//       — read-ahead bookkeeping, no value changes (may do nothing): the
//       draw phase announces each row read of its train phase, which
//       retires each one after its last use
//   size_t SampleSource(const train::SgdStep&, util::Rng&)  — P_c draw;
//       shard-affine envs may consult SgdStep::shard
//   size_t SampleNoise(util::Rng&)                          — P_n draw
//   size_t SampleConnectedTie(size_t e, util::Rng&)         — num_arcs()
//       when c(e) is empty
//   ArcClass ClassOf(e); bool IsLabeled(e); double Label(e)
//   uint32_t TieDegreeOf(e)
//   Pattern(e) → any type with fields {bool degree_active;
//       double pseudo_label; <range of .first/.second pairs> triads}
// RunEStep also asks the env's rows for bool StartReadAhead(size_t
// workers) and bool ReadAhead(size_t worker).
//
// MRow/NRow may do residency bookkeeping (the shard store admits and marks
// referenced every page a row spans). A train phase calls them in one
// fixed order, after its prefetches: m_e, n_e′, the negatives in draw
// order, then the triad rows. Nothing in the contract counts steps, and
// no member other than the samplers draws from an Rng.

#ifndef DEEPDIRECT_CORE_ESTEP_BODY_H_
#define DEEPDIRECT_CORE_ESTEP_BODY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/deepdirect.h"
#include "core/tie_index.h"
#include "kernels/kernels.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "obs/metrics.h"
#include "train/sgd_driver.h"
#include "util/alias_table.h"
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

/// A drawn E-step step, waiting in its worker's ring for its train phase:
/// the source e, the L_topo list (the context e′, then the negatives) and
/// what the warm-up decided at draw time.
struct DrawnStep {
  size_t source;
  size_t count;            ///< entries of `arcs` in use, 1 + negatives
  std::span<size_t> arcs;  ///< room for 1 + λ arc ids
  double warmup_scale;
  bool needs_prediction;  ///< the classifier trains on this step
  bool reads_triads;      ///< ...and reads the M rows of e's triad pairs
};

/// One worker's E-step state: the ring of its drawn steps, oldest first,
/// and the train phase's scratch, namely the m_e gradient row and the N
/// row pointers, labels (1, then 0s) and scores of the L_topo list.
struct EStepWorker {
  std::span<DrawnStep> ring;
  size_t head = 0;   ///< ring slot of the oldest drawn step
  size_t drawn = 0;  ///< steps drawn and not yet trained
  std::span<double> grad_m;
  std::span<float*> rows;
  std::span<const double> labels;
  std::span<double> scores;

  bool Full() const { return drawn == ring.size(); }
  DrawnStep& Push() {
    const size_t slot = head + drawn++;
    return ring[slot < ring.size() ? slot : slot - ring.size()];
  }
  const DrawnStep& Oldest() const { return ring[head]; }
  void Pop() {
    head = head + 1 == ring.size() ? 0 : head + 1;
    --drawn;
  }
};

/// EStepWorker for each of `workers` workers, each with a ring of
/// `ring_slots` drawn steps, carved from one slab. Each worker's share
/// starts a 4 KiB block of its own, and hardware prefetchers stay inside
/// such a block, so a worker's stores and the prefetches along them never
/// pull in a line another worker writes. On perfbench discover's graph
/// (two workers, 4-vCPU x86-64 host), gradient rows packed back to back
/// cost 11% more per step than rows a block apart.
class EStepWorkspace {
 public:
  EStepWorkspace(size_t workers, size_t dimensions, size_t negatives,
                 size_t ring_slots) {
    constexpr uintptr_t kBlockBytes = 4096;
    const size_t list = negatives + 1;
    // The worker and the double arrays come first, so carving the arrays
    // back to back from a block start leaves each one aligned for its
    // type.
    const size_t slot_bytes = sizeof(DrawnStep) + list * sizeof(size_t);
    const size_t bytes = sizeof(EStepWorker) +
                         (dimensions + 2 * list) * sizeof(double) +
                         list * sizeof(float*) + ring_slots * slot_bytes;
    const size_t stride = (bytes + kBlockBytes - 1) / kBlockBytes * kBlockBytes;
    slab_ = std::make_unique<std::byte[]>(workers * stride + kBlockBytes);
    std::byte* block = reinterpret_cast<std::byte*>(
        (reinterpret_cast<uintptr_t>(slab_.get()) + kBlockBytes - 1) &
        ~(kBlockBytes - 1));
    for (size_t w = 0; w < workers; ++w, block += stride) {
      std::byte* at = block;
      EStepWorker& worker = *new (at) EStepWorker;
      at += sizeof(EStepWorker);
      workers_.push_back(&worker);
      worker.grad_m = Carve<double>(at, dimensions);
      const std::span<double> labels = Carve<double>(at, list);
      labels[0] = 1.0;
      worker.labels = labels;
      worker.scores = Carve<double>(at, list);
      worker.rows = Carve<float*>(at, list);
      worker.ring = Carve<DrawnStep>(at, ring_slots);
      for (DrawnStep& slot : worker.ring) {
        new (&slot) DrawnStep{};
        slot.arcs = Carve<size_t>(at, list);
      }
    }
  }

  EStepWorker& operator[](size_t worker) { return *workers_[worker]; }

 private:
  template <typename T>
  static std::span<T> Carve(std::byte*& at, size_t count) {
    const std::span<T> out(reinterpret_cast<T*>(at), count);
    at += count * sizeof(T);
    return out;
  }

  // Zeroed, so every label after the first is 0. The objects placed in
  // it are trivially destructible.
  std::unique_ptr<std::byte[]> slab_;
  std::vector<EStepWorker*> workers_;
};

/// Calls m_row(a) or n_row(a) for every row the train phase of `draw`
/// reads, once per read and in the order it reads them: m_e, n_e′, the
/// negatives in draw order, then both M rows of each triad pair.
template <typename Env, typename MRowFn, typename NRowFn>
void ForEachRead(const Env& env, const DrawnStep& draw, MRowFn&& m_row,
                 NRowFn&& n_row) {
  m_row(draw.source);
  for (size_t j = 0; j < draw.count; ++j) n_row(draw.arcs[j]);
  if (!draw.reads_triads) return;
  for (const auto& pair : env.Pattern(draw.source).triads) {
    m_row(pair.first);
    m_row(pair.second);
  }
}

/// The draw phase of E-step step ctx.step: draws its indices into a new
/// slot of `worker`'s ring, counts its tallies and announces every row
/// its train phase reads. `config` is any DeepDirect-shaped config with
/// the E-step hyperparameters.
template <typename Env, typename Config>
void EStepDraw(Env& env, const train::SgdStep& ctx, const Config& config,
               uint64_t total_iterations, EStepWorker& worker,
               EStepTally& tally) {
  util::Rng& r = ctx.rng;
  const size_t num_arcs = env.num_arcs();
  DrawnStep& draw = worker.Push();

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

  // The λ negatives follow e′ in the L_topo list. A draw colliding with
  // the positive context is redrawn (bounded), not skipped: skipping would
  // train those steps on fewer than λ negatives and bias L_topo toward
  // the positive term.
  size_t* const arcs = draw.arcs.data();
  arcs[0] = e_prime;
  size_t count = 1;
  for (size_t neg = 0; neg < config.negative_samples; ++neg) {
    size_t f = env.SampleNoise(r);
    size_t redraws = 0;
    while (f == e_prime && redraws < kMaxNegativeRedraws) {
      ++tally.neg_collisions;
      ++redraws;
      f = env.SampleNoise(r);
    }
    if (f == e_prime) continue;  // degenerate noise mass; give up
    ++tally.negatives;
    arcs[count++] = f;
  }
  draw.source = e;
  draw.count = count;

  // The warm-up ramp follows the step index, so whether the classifier
  // trains is known now.
  const double progress =
      static_cast<double>(ctx.step) / static_cast<double>(total_iterations);
  draw.warmup_scale =
      config.classifier_warmup_fraction <= 0.0
          ? 1.0
          : std::min(1.0, progress / config.classifier_warmup_fraction);
  const bool labeled = env.IsLabeled(e);
  draw.needs_prediction =
      draw.warmup_scale > 0.0 &&
      (labeled || env.ClassOf(e) == ArcClass::kUndirected);
  draw.reads_triads = draw.needs_prediction && !labeled;
  if (draw.needs_prediction) {
    if (labeled) {
      ++tally.labeled;
    } else {
      const auto pattern = env.Pattern(e);
      if (pattern.degree_active) ++tally.degree_pattern;
      if (!pattern.triads.empty()) ++tally.triad_pattern;
    }
  }

  ForEachRead(
      env, draw, [&](size_t a) { env.AnnounceMRow(ctx.worker, a); },
      [&](size_t a) { env.AnnounceNRow(ctx.worker, a); });
}

/// The train phase of `worker`'s oldest drawn step, which must be step
/// ctx.step; returns kLossSampleSteps times the step's L_topo loss when
/// ctx.sample_loss is set, else 0. `A` is the parameter access policy
/// (SerialAccess or HogwildAccess). The joint classifier is the driver's
/// dense block (ctx.dense): w′ in its first l slots, b′ in the last.
/// Nearly every step reads and rewrites all of it.
template <typename A, typename Env, typename Config>
double EStepTrain(Env& env, const train::SgdStep& ctx, const Config& config,
                  EStepWorker& worker) {
  const DrawnStep& draw = worker.Oldest();
  const std::span<double> w_prime = ctx.dense.first(ctx.dense.size() - 1);
  double& b_prime = ctx.dense.back();
  const double lr = ctx.lr;
  const size_t e = draw.source;
  const size_t count = draw.count;
  const size_t* const arcs = draw.arcs.data();

  // Prefetch every row the step reads before the first of them is used,
  // so their loads overlap instead of queuing behind one another.
  ForEachRead(
      env, draw, [&](size_t a) { env.PrefetchMRow(a); },
      [&](size_t a) { env.PrefetchNRow(a); });

  auto m_e = env.MRow(e);
  float** const rows = worker.rows.data();
  for (size_t j = 0; j < count; ++j) rows[j] = env.NRow(arcs[j]).data();
  const std::span<double> grad_m = worker.grad_m;
  std::fill(grad_m.begin(), grad_m.end(), 0.0);

  double step_loss = 0.0;

  // L_topo: positive pair + λ negatives (Eqs. 23–25) in one kernel call.
  // Per row it computes the score, accumulates the m_e gradient and
  // applies the context update: g = σ(score) − y, row −= lr·g·m_e.
  const std::span<double> scores = worker.scores.first(count);
  kernels::NegSamplingRows<A>(grad_m, m_e, {rows, count},
                              worker.labels.first(count), /*grad_scale=*/1.0,
                              /*update_scale=*/-lr, scores);
  if (ctx.sample_loss) {
    step_loss -= ml::LogSigmoid(scores[0]);
    for (size_t j = 1; j < count; ++j) step_loss -= ml::LogSigmoid(-scores[j]);
    step_loss *= static_cast<double>(train::kLossSampleSteps);
  }

  // Classifier losses: ∂L'/∂b' per Eq. 21, ramped in over the warmup
  // window so the topology loss shapes the embedding first.
  double g_b = 0.0;
  if (draw.needs_prediction) {
    const double score = kernels::DotF64F32<A>(A::Load(b_prime), w_prime, m_e);
    const double prediction = ml::Sigmoid(score);

    // Ablation hook: dividing by deg_tie(e) cancels the tie-degree
    // weighting that P_c sampling otherwise realizes (Eq. 19). The
    // warmup ramp multiplies in here as well.
    const double degree_scale =
        draw.warmup_scale *
        (config.weight_by_tie_degree
             ? 1.0
             : 1.0 / std::max<double>(1.0, env.TieDegreeOf(e)));

    if (env.IsLabeled(e)) {
      g_b += config.alpha * degree_scale * (prediction - env.Label(e));
    } else {
      const auto pattern = env.Pattern(e);
      if (pattern.degree_active) {
        g_b += config.beta * degree_scale *
               (prediction - pattern.pseudo_label);
      }
      if (!pattern.triads.empty()) {
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

  ForEachRead(
      env, draw, [&](size_t a) { env.RetireMRow(ctx.worker, a); },
      [&](size_t a) { env.RetireNRow(ctx.worker, a); });
  worker.Pop();
  return step_loss;
}

/// Rows of M and N in two heap matrices, under the row interface of
/// train::ShardedStore, so EStepEnv and TrainDStep read either backend.
/// Cheap to copy: EStepEnv holds it by value, a store by reference. Heap
/// rows are never evicted, so it announces nothing and never asks a
/// worker to draw ahead.
struct MatrixRows {
  ml::Matrix& m;
  ml::Matrix& n;

  std::span<float> EmbRow(size_t e) { return m.Row(e); }
  std::span<float> ConnRow(size_t e) { return n.Row(e); }
  void PrefetchEmbRow(size_t e) const { kernels::PrefetchRow(m.Row(e)); }
  void PrefetchConnRow(size_t e) const { kernels::PrefetchRow(n.Row(e)); }
  bool StartReadAhead(size_t) { return false; }
  bool ReadAhead(size_t) const { return false; }
  void AnnounceEmbRow(size_t, size_t) {}
  void AnnounceConnRow(size_t, size_t) {}
  void RetireEmbRow(size_t, size_t) {}
  void RetireConnRow(size_t, size_t) {}
};

/// The E-step's sampling distributions (Algorithm 1, line 11). Sources
/// follow P_c ∝ deg_tie over every arc or over an update's affected arcs;
/// noise follows P_n ∝ (deg_tie + 1)^{3/4} over every arc, or is uniform
/// under the ablation flag. Shard-affine Hogwild adds one P_c table per
/// shard, and a step that carries a shard draws its source there.
class Samplers {
 public:
  /// `sources` lists the source arcs in ascending order; empty means all.
  Samplers(const TieIndex& idx, bool uniform_negatives,
           std::vector<uint32_t> sources = {})
      : sources_(std::move(sources)),
        source_table_(
            SourceTable(idx, sources_.empty() ? idx.num_arcs()
                                              : sources_.size(),
                        [&](size_t i) {
                          return sources_.empty() ? i : size_t{sources_[i]};
                        })
                .first),
        noise_table_(NoiseWeights(idx, uniform_negatives)) {}

  /// Adds one P_c table per shard of `store` (contiguous arc ranges) and
  /// returns the shard plan, which weights each shard by its P_c mass. A
  /// shard without mass keeps drawing from the main table, or the resample
  /// loop in EStepDraw would spin inside it.
  template <typename Store>
  train::ShardPlan PlanShards(const TieIndex& idx, const Store& store) {
    train::ShardPlan plan;
    plan.num_shards = store.num_shards();
    for (size_t s = 0; s < plan.num_shards; ++s) {
      const size_t begin = static_cast<size_t>(store.ShardArcBegin(s));
      const size_t end = static_cast<size_t>(store.ShardArcEnd(s));
      auto [table, mass] = SourceTable(idx, end - begin,
                                       [&](size_t i) { return begin + i; });
      shards_.push_back({begin, mass > 0.0, std::move(table)});
      plan.shard_weights.push_back(mass);
    }
    return plan;
  }

  size_t SampleSource(const train::SgdStep& ctx, util::Rng& r) const {
    const size_t s = ctx.shard;
    if (s != train::kNoShard && s < shards_.size() && shards_[s].has_mass) {
      return shards_[s].begin + shards_[s].table.Sample(r);
    }
    const size_t i = source_table_.Sample(r);
    return sources_.empty() ? i : sources_[i];
  }
  size_t SampleNoise(util::Rng& r) const { return noise_table_.Sample(r); }

 private:
  struct Shard {
    size_t begin;
    bool has_mass;
    util::AliasTable table;
  };

  /// P_c over the `count` arcs arc(0), arc(1), …, with its mass. Without
  /// mass (every destination a leaf: no connected tie pairs) it is uniform.
  template <typename ArcAt>
  static std::pair<util::AliasTable, double> SourceTable(const TieIndex& idx,
                                                         size_t count,
                                                         ArcAt arc) {
    std::vector<double> weights(count);
    double mass = 0.0;
    for (size_t i = 0; i < count; ++i) {
      weights[i] = idx.TieDegree(arc(i));
      mass += weights[i];
    }
    if (mass <= 0.0) std::fill(weights.begin(), weights.end(), 1.0);
    return {util::AliasTable(weights), mass};
  }

  static std::vector<double> NoiseWeights(const TieIndex& idx,
                                          bool uniform) {
    std::vector<double> weights(idx.num_arcs(), 1.0);
    if (uniform) return weights;
    for (size_t e = 0; e < weights.size(); ++e) {
      weights[e] = std::pow(static_cast<double>(idx.TieDegree(e)) + 1.0, 0.75);
    }
    return weights;
  }

  std::vector<uint32_t> sources_;
  util::AliasTable source_table_;
  util::AliasTable noise_table_;
  std::vector<Shard> shards_;
};

/// The storage environment of every E-step run (see the contract in the
/// file comment). `Rows` is MatrixRows or train::ShardedStore&, so a row
/// access costs the heap path no extra indirection. Pattern() is consulted
/// only for sampled sources, which is what makes an update's arc-masked
/// pattern arena safe.
template <typename Rows>
struct EStepEnv {
  const TieIndex& idx;
  const PatternPrecompute& patterns;
  Rows rows;
  const Samplers& samplers;

  struct PatternView {
    bool degree_active;
    double pseudo_label;
    std::span<const std::pair<uint32_t, uint32_t>> triads;
  };

  size_t num_arcs() const { return idx.num_arcs(); }
  std::span<float> MRow(size_t e) { return rows.EmbRow(e); }
  std::span<float> NRow(size_t e) { return rows.ConnRow(e); }
  void PrefetchMRow(size_t e) const { rows.PrefetchEmbRow(e); }
  void PrefetchNRow(size_t e) const { rows.PrefetchConnRow(e); }
  void AnnounceMRow(size_t w, size_t e) { rows.AnnounceEmbRow(w, e); }
  void AnnounceNRow(size_t w, size_t e) { rows.AnnounceConnRow(w, e); }
  void RetireMRow(size_t w, size_t e) { rows.RetireEmbRow(w, e); }
  void RetireNRow(size_t w, size_t e) { rows.RetireConnRow(w, e); }
  size_t SampleSource(const train::SgdStep& ctx, util::Rng& r) const {
    return samplers.SampleSource(ctx, r);
  }
  size_t SampleNoise(util::Rng& r) const { return samplers.SampleNoise(r); }
  size_t SampleConnectedTie(size_t e, util::Rng& r) const {
    return idx.SampleConnectedTie(e, r);
  }
  ArcClass ClassOf(size_t e) const { return idx.Class(e); }
  bool IsLabeled(size_t e) const { return idx.IsLabeled(e); }
  double Label(size_t e) const { return idx.Label(e); }
  uint32_t TieDegreeOf(size_t e) const { return idx.TieDegree(e); }
  PatternView Pattern(size_t e) const {
    const uint32_t s = patterns.slot[e];
    const uint32_t t_begin = patterns.triad_offsets[s];
    const uint32_t t_end = patterns.triad_offsets[s + 1];
    return {patterns.degree_active[s] != 0, patterns.degree_pseudo_label[s],
            std::span(patterns.triad_pairs).subspan(t_begin, t_end - t_begin)};
  }
};

/// Driver options of an E-step run of `steps` steps seeded by `seed`, with
/// the joint classifier (w′ in the first l slots, b′ in the last) as the
/// dense block. Callers add what only their path has: epochs, a
/// checkpointer, a shard plan.
inline train::SgdOptions EStepOptions(const DeepDirectConfig& config,
                                      uint64_t steps, uint64_t seed,
                                      std::span<double> classifier,
                                      std::string metrics_prefix) {
  train::SgdOptions options;
  options.steps = steps;
  options.num_threads = config.num_threads;
  options.lr = config.Schedule();
  options.shard_seed = seed;
  options.metrics_prefix = std::move(metrics_prefix);
  options.dense = classifier;
  return options;
}

/// Ring slots of a worker that draws ahead. The budget share bounds the
/// depth first: on perfbench's train_ooc (one worker, 512 pages for 588)
/// it averaged 233 steps.
inline constexpr size_t kReadAheadSteps = 4096;

/// Runs the E-step over `env` for `options.steps` steps, each drawn and
/// then trained, with per-worker rings, scratch and sampler tallies; then
/// flushes the tallies. A worker draws ahead while its ring has room and
/// the rows backend asks for more.
template <typename Rows>
void RunEStep(EStepEnv<Rows> env, const train::SgdOptions& options,
              const DeepDirectConfig& config, util::Rng& rng) {
  train::SgdDriver driver(options);
  const bool read_ahead = env.rows.StartReadAhead(driver.num_workers());
  EStepWorkspace workspace(driver.num_workers(), config.dimensions,
                           config.negative_samples,
                           read_ahead ? kReadAheadSteps : 1);
  std::vector<EStepTally> tallies(driver.num_workers());
  driver.Run(
      rng,
      train::TwoPhase{
          [&](const train::SgdStep& ctx) {
            EStepDraw(env, ctx, config, options.steps, workspace[ctx.worker],
                      tallies[ctx.worker]);
          },
          [&](size_t worker) {
            return !workspace[worker].Full() && env.rows.ReadAhead(worker);
          },
          [&](auto access, const train::SgdStep& ctx) -> double {
            using A = decltype(access);
            return EStepTrain<A>(env, ctx, config, workspace[ctx.worker]);
          }});
  FlushTallies(tallies);
}

/// The D-step (Sec. 4.5.2): an L2 logistic regression over the embedding
/// rows of the labeled arcs, warm-started from the E-step classifier
/// `classifier` = (w′, b′).
template <typename Rows>
ml::LogisticRegression TrainDStep(Rows& rows, const TieIndex& idx,
                                  std::span<const double> classifier,
                                  const ml::LogisticRegressionConfig& config) {
  const size_t l = classifier.size() - 1;
  ml::Dataset data(l);
  std::vector<double> features(l);
  for (size_t e = 0; e < idx.num_arcs(); ++e) {
    if (!idx.IsLabeled(e)) continue;
    const auto row = rows.EmbRow(e);
    for (size_t k = 0; k < l; ++k) features[k] = row[k];
    data.Add(features, idx.Label(e));
  }
  ml::LogisticRegression d_step(
      std::vector<double>(classifier.begin(), classifier.begin() + l),
      classifier[l]);
  d_step.Train(data, config);
  return d_step;
}

}  // namespace deepdirect::core::internal

#endif  // DEEPDIRECT_CORE_ESTEP_BODY_H_
