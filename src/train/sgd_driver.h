// SgdDriver: the unified parallel SGD engine behind every trainer.
//
// A trainer hands the driver a step budget, a learning-rate schedule, and a
// step body; the driver owns execution:
//   * one worker  — the body runs inline on the trainer's own Rng with
//     SerialAccess, which reproduces the historical single-threaded
//     trainers bit-for-bit (same RNG stream, same float arithmetic);
//   * N workers   — the step budget is partitioned across the pool in
//     strides (worker w runs steps w, w+N, w+2N, … of each chunk, so each
//     worker sweeps the full learning-rate decay), every worker draws from
//     its own ShardedRng stream, and the body runs with HogwildAccess:
//     lock-free relaxed-atomic updates on the shared sparse parameters
//     (embedding rows, of which a step touches a few), the Hogwild model.
//
// Dense parameters are the exception. A trainer may hand the driver one
// block that every step reads and writes in full (SgdOptions::dense: the
// E-step's joint classifier (w′, b′), the D-step's (w, b)). Hogwild assumes
// sparse updates; on a block every step rewrites, N workers would fight
// over the same few cache lines on every step. So the Hogwild paths give
// each worker a private copy of the block. Every kDenseMergeSteps of its
// own steps, and once when its chunk ends, a worker adds its change since
// the last merge into the shared block under one mutex and refreshes its
// copy from the result. No update is lost, and the block is exact at every
// epoch boundary. The serial path hands the body the trainer's block
// itself, so nt=1 arithmetic is unchanged.
//
// The budget is executed in epoch-sized chunks (steps_per_epoch; 0 = the
// whole budget is one epoch). Epoch boundaries are where the driver fires
// the epoch_start/epoch_end hooks, appends the epoch's loss to the
// ".run_loss" series, and hands control to the Checkpointer — the only
// points where all workers are quiesced and the parameter state is
// consistent, which is what makes checkpoint/resume exact. In the
// multi-worker path each epoch's worker streams are derived from
// (shard_seed, epoch), so a resumed run samples the remaining epochs
// identically to the uninterrupted one.
//
// The body is a generic callable
//     double body(AccessPolicy, const SgdStep&)
// returning the step's loss; Run returns the sum over the executed steps,
// and each epoch's sum is EpochEnd::loss. The driver is the one place that
// decides which steps compute a loss: SgdStep::sample_loss is set, from the
// step index alone, on every kLossSampleSteps-th step of a run that records
// telemetry. A body whose loss costs extra work computes it only there and
// returns kLossSampleSteps times it, so each epoch's sum estimates the full
// one; a body whose loss falls out of its update (logistic regression)
// returns it on every step. Per-worker scratch buffers should be sized by
// num_workers() and indexed by SgdStep::worker.
//
// Each worker runs one schedule of (step, shard) pairs per epoch chunk:
// the serial chunk, its Hogwild strides, or its shard rounds. A body may
// instead be a TwoPhase: draw(ctx) takes a step's random draws and
// train(access, ctx) trains the oldest drawn step. The driver then draws
// each step before it trains it, and while draw_more(worker) asks, draws
// further steps of the same schedule first, so the read-ahead sees
// exactly the steps the worker runs next. It never draws past the end of
// the chunk: every drawn step is trained before epoch_end and the
// checkpointer run. Draws keep their order in each worker's Rng stream,
// so a body whose draws do not depend on what its train phase writes (the
// E-step's) trains exactly what it would have trained one step at a time.

#ifndef DEEPDIRECT_TRAIN_SGD_DRIVER_H_
#define DEEPDIRECT_TRAIN_SGD_DRIVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"
#include "train/hogwild.h"
#include "train/lr_schedule.h"
#include "train/parallel.h"
#include "train/sharded_rng.h"
#include "train/thread_pool.h"
#include "util/random.h"
#include "util/timer.h"

namespace deepdirect::train {

/// SgdStep::shard value when the run is unsharded (or serial).
inline constexpr size_t kNoShard = static_cast<size_t>(-1);

/// A run that records telemetry samples the loss of every step whose index
/// is a multiple of this (see SgdStep::sample_loss). Prime, so that strided
/// Hogwild workers all sample: with an even k, two workers (one on the even
/// steps, one on the odd) would leave every sampled step to one of them.
inline constexpr uint64_t kLossSampleSteps = 61;

/// Shard-affinity plan for Hogwild runs over out-of-core storage. With
/// `num_shards > 0` and more than one worker, each epoch chunk's step
/// budget is apportioned across shards by weight (largest remainder) and
/// shard s is pinned to worker s % num_workers: a worker executes its
/// shards' steps in rounds of contiguous spans, so the resident pages it
/// faults in stay hot instead of being re-faulted by every worker, while
/// every shard still sweeps the whole learning-rate decay. The serial path
/// ignores the plan entirely — nt=1 keeps the global (shard-free) sampling
/// order, which is what makes nt=1 output independent of the shard count.
struct ShardPlan {
  /// Number of storage shards; 0 disables shard affinity.
  size_t num_shards = 0;
  /// Per-shard sampling weight (e.g. connected-pair mass). Empty = uniform.
  std::vector<double> shard_weights;
};

/// Execution parameters of one driver run.
struct SgdOptions {
  /// Steps this run executes (the full budget; resume skips within it).
  uint64_t steps = 0;
  /// Worker count: 1 = deterministic serial path, 0 = all hardware threads.
  size_t num_threads = 1;
  /// Learning-rate schedule over the step budget.
  LrSchedule lr;
  /// Base seed for per-worker RNG streams (multi-worker runs only; the
  /// serial path draws from the trainer's own Rng instead).
  uint64_t shard_seed = 0;
  /// Steps per epoch chunk; 0 treats the whole budget as one epoch. Epoch
  /// e covers global steps [e·spe, (e+1)·spe); the final epoch may be
  /// shorter when the budget is not a multiple.
  uint64_t steps_per_epoch = 0;
  /// Global epochs already completed (from Checkpointer::Resume); the
  /// driver skips all steps below start_epoch·steps_per_epoch without
  /// consuming any RNG.
  uint64_t start_epoch = 0;
  /// Fired before each epoch's steps with the global epoch index (e.g. to
  /// reshuffle the visit order). Runs on the calling thread.
  std::function<void(uint64_t)> epoch_start;
  /// Fired after each epoch's steps, workers quiesced.
  std::function<void(const EpochEnd&)> epoch_end;
  /// When set, consulted after every epoch (after epoch_end); writes
  /// checkpoints per its policy and can stop the run (simulated
  /// preemption). Not owned.
  Checkpointer* checkpointer = nullptr;
  /// When non-empty and the obs registry is enabled, the run records
  /// telemetry under this prefix: counter ".steps" (executed steps), series
  /// ".run_loss" (the loss sum of each executed epoch), gauge
  /// ".examples_per_sec", and histogram ".worker_steps" (one observation
  /// per worker). Only such a run samples step losses. Recording happens at
  /// epoch boundaries and after the run, and never draws from any Rng.
  std::string metrics_prefix;
  /// Shard affinity for multi-worker runs; see ShardPlan.
  ShardPlan shard_plan;
  /// The dense parameter block: the parameters every step reads and writes
  /// in full (see the file comment); empty when the trainer has none. The
  /// body reaches it through SgdStep::dense. Exact whenever epoch_end and
  /// the checkpointer run. Not owned.
  std::span<double> dense;
};

/// One step's execution context, handed to the body.
struct SgdStep {
  size_t worker;   ///< worker index in [0, num_workers)
  uint64_t step;   ///< global step index
  double lr;       ///< learning rate at this step
  util::Rng& rng;  ///< this worker's RNG stream
  /// Storage shard this step should sample its source from; kNoShard on
  /// the serial path and on runs without a ShardPlan.
  size_t shard = kNoShard;
  /// The dense block this step reads and writes: SgdOptions::dense itself
  /// on the serial path, this worker's private copy on the Hogwild paths.
  std::span<double> dense = {};
  /// This step's loss is sampled: the run records telemetry and
  /// step % kLossSampleSteps == 0. A body that computes its loss only when
  /// asked returns kLossSampleSteps times it here and 0 elsewhere.
  bool sample_loss = false;
};

/// A two-phase step body (see the file comment): draw(ctx) takes step
/// ctx.step's random draws from ctx.rng, train(access, ctx) trains the
/// oldest drawn step, which is step ctx.step, and returns its loss, and
/// draw_more(worker) says whether that worker should draw another step
/// before it trains.
template <typename Draw, typename DrawMore, typename Train>
struct TwoPhase {
  Draw draw;
  DrawMore draw_more;
  Train train;
};
template <typename Draw, typename DrawMore, typename Train>
TwoPhase(Draw, DrawMore, Train) -> TwoPhase<Draw, DrawMore, Train>;

template <typename Body>
inline constexpr bool kIsTwoPhase = false;
template <typename Draw, typename DrawMore, typename Train>
inline constexpr bool kIsTwoPhase<TwoPhase<Draw, DrawMore, Train>> = true;

/// Unified SGD execution engine; see the file comment.
class SgdDriver {
 public:
  explicit SgdDriver(const SgdOptions& options)
      : options_(options), workers_(ResolveWorkerCount(options)) {}

  /// Resolved worker count (scratch buffers should be sized by this).
  size_t num_workers() const { return workers_; }

  /// Runs the step budget; returns the sum of the executed bodies' losses.
  template <typename Body>
  double Run(util::Rng& rng, Body&& body) {
    const uint64_t steps = options_.steps;
    const uint64_t spe =
        options_.steps_per_epoch != 0 ? options_.steps_per_epoch : steps;
    // Resume: everything below the restored epoch boundary already ran in
    // a previous process; skip it without touching the RNG (its stream was
    // restored from the checkpoint).
    uint64_t cursor = 0;
    if (options_.start_epoch > 0 && spe > 0) {
      cursor = std::min(steps, options_.start_epoch * spe);
    }
    const bool record = !options_.metrics_prefix.empty() && obs::Enabled();
    const util::Timer timer;
    std::optional<ThreadPool> pool;
    if (workers_ > 1) pool.emplace(workers_);

    double loss_sum = 0.0;
    uint64_t executed = 0;
    std::vector<uint64_t> worker_steps(workers_, 0);
    while (cursor < steps) {
      const uint64_t epoch = spe > 0 ? cursor / spe : 0;
      const uint64_t chunk_end =
          spe > 0 ? std::min<uint64_t>(steps, (epoch + 1) * spe) : steps;
      if (options_.epoch_start) options_.epoch_start(epoch);
      // One timeline span per epoch chunk (named runs only). The span is
      // pure steady-clock bookkeeping recorded at the quiesced boundary —
      // it never touches any Rng, so traced runs stay bit-identical.
      std::optional<obs::TraceSpan> epoch_span;
      if (!options_.metrics_prefix.empty() && obs::TraceEnabled()) {
        epoch_span.emplace(options_.metrics_prefix + ".epoch " +
                           std::to_string(epoch));
      }
      double epoch_loss = 0.0;
      if (workers_ == 1) {
        epoch_loss = RunWorker<SerialAccess>(0, rng, options_.dense, nullptr,
                                             record,
                                             Strided(cursor, 1, chunk_end),
                                             body, worker_steps[0]);
      } else {
        epoch_loss = RunChunkHogwild(cursor, chunk_end, epoch, record, *pool,
                                     worker_steps, body);
      }
      loss_sum += epoch_loss;
      executed += chunk_end - cursor;
      cursor = chunk_end;

      const EpochEnd boundary{epoch, cursor, epoch_loss, cursor >= steps};
      if (options_.epoch_end) options_.epoch_end(boundary);
      if (record) {
        obs::Registry::Default().Append(
            options_.metrics_prefix + ".run_loss", epoch_loss);
      }
      if (options_.checkpointer &&
          options_.checkpointer->AtEpochBoundary(boundary, rng)) {
        break;
      }
    }
    if (record) {
      RecordRunMetrics(executed, timer.ElapsedSeconds(), worker_steps);
    }
    return loss_sum;
  }

 private:
  /// One epoch chunk on the Hogwild path. Each epoch's worker streams are
  /// seeded from (shard_seed, epoch) so resumed epochs sample identically;
  /// a run whose whole budget is one epoch keeps the historical seeding
  /// (shard_seed directly).
  ///
  /// Without a ShardPlan, worker w runs chunk-relative steps w, w+N, w+2N,
  /// …. With one, the chunk's budget is apportioned across shards by
  /// weight (ApportionSteps) and shard s runs on worker s % N. The worker
  /// interleaves its shards in rounds of kShardRoundSteps of its own
  /// steps: once it has run k steps, shard s has run ⌊quota_s·k/q_w⌋ of
  /// them, each round's share of a shard as one contiguous span, and the
  /// remainders run in the last round. Quotas follow shard mass, so a
  /// worker's share q_w is not chunk/N: its k-th local step takes the
  /// learning rate of chunk-relative step ⌊k·chunk/q_w⌋, which sweeps the
  /// whole decay once whatever q_w is, and every shard sees all of it.
  template <typename Body>
  double RunChunkHogwild(uint64_t chunk_begin, uint64_t chunk_end,
                         uint64_t epoch, bool record, ThreadPool& pool,
                         std::vector<uint64_t>& worker_steps, Body&& body) {
    const bool single_chunk = options_.steps_per_epoch == 0 ||
                              options_.steps_per_epoch >= options_.steps;
    const ShardedRng shards(single_chunk
                                ? options_.shard_seed
                                : PerItemSeed(options_.shard_seed, epoch));
    const uint64_t chunk_steps = chunk_end - chunk_begin;
    const std::vector<uint64_t> quota =
        options_.shard_plan.num_shards > 0 ? ApportionSteps(chunk_steps)
                                           : std::vector<uint64_t>{};
    std::vector<double> worker_loss(workers_, 0.0);
    const bool trace_workers =
        !options_.metrics_prefix.empty() && obs::TraceEnabled();
    std::mutex dense_mu;  // guards options_.dense while the workers run
    pool.ParallelFor(workers_, [&](size_t w) {
      // Per-worker span: lays the chunk out on the worker's own timeline
      // row, making stragglers visible. Steady-clock only, no Rng.
      std::optional<obs::TraceSpan> worker_span;
      if (trace_workers) {
        worker_span.emplace(options_.metrics_prefix + ".worker " +
                            std::to_string(w));
      }
      util::Rng worker_rng = shards.MakeShard(w);
      DenseCopy dense(options_.dense, dense_mu);
      worker_loss[w] = RunWorker<HogwildAccess>(
          w, worker_rng, dense.params(), &dense, record,
          quota.empty() ? Strided(chunk_begin + w, workers_, chunk_end)
                        : ShardRounds(w, quota, chunk_begin, chunk_steps),
          body, worker_steps[w]);
      dense.Merge();
    });
    // Fixed summation order keeps the reduction independent of thread
    // scheduling (the sparse updates themselves still race, by design).
    double loss_sum = 0.0;
    for (double v : worker_loss) loss_sum += v;
    return loss_sum;
  }

  /// A Hogwild worker's private copy of the dense block. Merge() adds the
  /// copy's change since the last merge into the shared block under `mu`
  /// and refreshes the copy from the result. The shared block is touched
  /// only under `mu` while workers run, so its updates never race.
  class DenseCopy {
   public:
    DenseCopy(std::span<double> shared, std::mutex& mu)
        : shared_(shared), mu_(mu) {
      if (shared_.empty()) return;
      std::lock_guard<std::mutex> lock(mu_);
      params_.assign(shared_.begin(), shared_.end());
      base_ = params_;
    }

    std::span<double> params() { return params_; }

    void Merge() {
      if (shared_.empty()) return;
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < shared_.size(); ++i) {
        shared_[i] += params_[i] - base_[i];
      }
      std::copy(shared_.begin(), shared_.end(), params_.begin());
      std::copy(shared_.begin(), shared_.end(), base_.begin());
    }

   private:
    std::span<double> shared_;
    std::mutex& mu_;
    std::vector<double> params_;  ///< what this worker's steps update
    std::vector<double> base_;    ///< the shared block at the last merge
  };

  /// One step of a worker's schedule.
  struct Planned {
    uint64_t step;
    size_t shard;
  };
  /// A worker's schedule within one epoch chunk: each call appends the
  /// next pairs, at most a round of them, to the plan, and returns false
  /// once the worker's share of the chunk is exhausted.
  using Schedule = std::function<bool(std::vector<Planned>&)>;

  /// Runs one worker's schedule, in order, and returns the sum of its
  /// steps' losses; adds the steps it ran to `steps_run`. A TwoPhase body
  /// draws each step before it trains it, and draws further steps of the
  /// same schedule ahead while draw_more asks; so the read-ahead sees
  /// exactly the steps the worker runs next and never passes the chunk's
  /// end. With a `copy`, the steps use that dense copy, merged every
  /// kDenseMergeSteps of the worker's steps; the caller merges at the end.
  template <typename A, typename Body>
  double RunWorker(size_t worker, util::Rng& rng, std::span<double> dense,
                   DenseCopy* copy, bool record, const Schedule& schedule,
                   Body& body, uint64_t& steps_run) {
    std::vector<Planned> plan;
    plan.reserve(kShardRoundSteps);
    size_t trained = 0;  // plan[trained] is the next step to train
    size_t drawn = 0;    // plan[drawn] the next to draw
    // Makes plan[drawn] exist, dropping the trained pairs before each
    // refill; false at the end of the schedule.
    const auto next = [&] {
      if (drawn < plan.size()) return true;
      plan.erase(plan.begin(),
                 plan.begin() + static_cast<std::ptrdiff_t>(trained));
      drawn -= trained;
      trained = 0;
      while (drawn == plan.size()) {
        if (!schedule(plan)) return false;
      }
      return true;
    };
    const auto ctx = [&](const Planned& p) {
      return SgdStep{worker, p.step, options_.lr.At(p.step, options_.steps),
                     rng, p.shard, dense,
                     record && p.step % kLossSampleSteps == 0};
    };
    double loss_sum = 0.0;
    uint64_t ran = 0;
    while (trained < drawn || next()) {
      if constexpr (kIsTwoPhase<std::remove_cvref_t<Body>>) {
        if (drawn == trained) body.draw(ctx(plan[drawn++]));
        while (body.draw_more(worker) && next()) body.draw(ctx(plan[drawn++]));
        loss_sum += body.train(A{}, ctx(plan[trained++]));
      } else {
        loss_sum += body(A{}, ctx(plan[trained++]));
        drawn = trained;
      }
      if (++ran % kDenseMergeSteps == 0 && copy != nullptr) copy->Merge();
    }
    steps_run += ran;
    return loss_sum;
  }

  /// Steps first, first + stride, … below end: the serial chunk and a
  /// Hogwild worker's strides.
  static Schedule Strided(uint64_t first, uint64_t stride, uint64_t end) {
    return [step = first, stride, end](std::vector<Planned>& plan) mutable {
      if (step >= end) return false;
      for (uint64_t k = 0; k < kShardRoundSteps && step < end;
           ++k, step += stride) {
        plan.push_back({step, kNoShard});
      }
      return true;
    };
  }

  /// Worker w's shard-interleaved schedule of a chunk of `chunk_steps`
  /// steps from `chunk_begin`, one round per call (see RunChunkHogwild).
  Schedule ShardRounds(size_t w, const std::vector<uint64_t>& quota,
                       uint64_t chunk_begin, uint64_t chunk_steps) const {
    // This worker's shards with ⌊quota_s·k/q_w⌋ as quotient and
    // remainder, so that no quota·k product can overflow.
    struct Share {
      size_t shard;
      uint64_t quota;
      uint64_t due = 0;
      uint64_t due_rem = 0;
    };
    std::vector<Share> shares;
    uint64_t q_w = 0;
    for (size_t s = w; s < quota.size(); s += workers_) {
      shares.push_back({s, quota[s]});
      q_w += quota[s];
    }
    // ⌊k·chunk/q_w⌋, advanced the same way.
    const uint64_t stride = q_w > 0 ? chunk_steps / q_w : 0;
    const uint64_t stride_rem = q_w > 0 ? chunk_steps % q_w : 0;
    return [shares = std::move(shares), q_w, stride, stride_rem, chunk_begin,
            k = uint64_t{0}, index = uint64_t{0},
            rem = uint64_t{0}](std::vector<Planned>& plan) mutable {
      if (k >= q_w) return false;
      const uint64_t round = std::min(kShardRoundSteps, q_w - k);
      k += round;
      for (Share& share : shares) {
        const uint64_t ran = share.due;
        const uint64_t add = share.quota * round;
        share.due += add / q_w;
        share.due_rem += add % q_w;
        if (share.due_rem >= q_w) {
          share.due_rem -= q_w;
          ++share.due;
        }
        for (uint64_t j = ran; j < share.due; ++j) {
          plan.push_back({chunk_begin + index, share.shard});
          index += stride;
          rem += stride_rem;
          if (rem >= q_w) {
            rem -= q_w;
            ++index;
          }
        }
      }
      return true;
    };
  }

  /// Largest-remainder apportionment of `chunk_steps` across the plan's
  /// shards by weight. Deterministic: remainder ties break on shard index.
  std::vector<uint64_t> ApportionSteps(uint64_t chunk_steps) const {
    const size_t n = options_.shard_plan.num_shards;
    std::vector<double> weights = options_.shard_plan.shard_weights;
    double weight_sum = 0.0;
    for (double v : weights) weight_sum += v;
    if (weights.size() != n || weight_sum <= 0.0) {
      weights.assign(n, 1.0);
      weight_sum = static_cast<double>(n);
    }
    std::vector<uint64_t> quota(n, 0);
    std::vector<std::pair<double, size_t>> remainders(n);
    uint64_t assigned = 0;
    for (size_t s = 0; s < n; ++s) {
      const double exact =
          static_cast<double>(chunk_steps) * weights[s] / weight_sum;
      quota[s] = static_cast<uint64_t>(exact);
      assigned += quota[s];
      remainders[s] = {exact - static_cast<double>(quota[s]), s};
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (size_t k = 0; assigned < chunk_steps; ++k, ++assigned) {
      ++quota[remainders[k % n].second];
    }
    return quota;
  }

  /// Post-run telemetry (see SgdOptions::metrics_prefix). Cold path: runs
  /// once per Run, after every worker has joined.
  void RecordRunMetrics(uint64_t executed, double seconds,
                        const std::vector<uint64_t>& worker_steps) {
    const std::string& prefix = options_.metrics_prefix;
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter(prefix + ".steps")->Add(executed);
    registry.GetGauge(prefix + ".examples_per_sec")
        ->Set(seconds > 0.0 ? static_cast<double>(executed) / seconds : 0.0);
    obs::Histogram* steps_hist =
        registry.GetHistogram(prefix + ".worker_steps");
    for (size_t w = 0; w < workers_; ++w) {
      steps_hist->Observe(static_cast<double>(worker_steps[w]));
    }
  }

  // Steps between a worker's dense-block merges. With two workers on a
  // Twitter scale-0.6 graph (4 vCPUs), merging every 8 steps was about 3%
  // slower on the E-step and 23% slower on the D-step than every 64; 512
  // was within 3% of 64. 64 keeps each copy the less stale of the two.
  static constexpr uint64_t kDenseMergeSteps = 64;
  // A worker's own steps per round of its shard-interleaved schedule (see
  // RunChunkHogwild). On a Twitter scale-0.33 graph (4 shards, 2 MiB
  // budget, two workers, 5 epochs, seeds 1–3), rounds of 4096 scored
  // 0.680–0.686, as two workers in RAM did, against 0.479–0.518 with each
  // shard's quota as one span. Shorter rounds keep a shard's pages hot for
  // fewer steps: 1024 took a quarter longer there, 256 twice as long. Over
  // a single epoch 4096 is coarse (0.53–0.67 over seeds 1–5, 0.67–0.69 at
  // 256).
  static constexpr uint64_t kShardRoundSteps = 4096;

  static size_t ResolveWorkerCount(const SgdOptions& options) {
    size_t workers = options.num_threads == 0
                         ? ThreadPool::HardwareConcurrency()
                         : options.num_threads;
    // Never spawn more workers than steps; degenerate budgets run inline.
    if (options.steps < workers) {
      workers = std::max<uint64_t>(1, options.steps);
    }
    return workers;
  }

  SgdOptions options_;
  size_t workers_;
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_SGD_DRIVER_H_
