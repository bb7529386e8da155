// Tests for the unified SGD training engine (src/train/): learning-rate
// schedules, sharded RNG streams, the thread pool, the SgdDriver's
// serial-determinism, multi-worker coverage and loss-sampling guarantees,
// and the interrupt/resume goldens for all four production trainers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/incremental.h"
#include "data/generators.h"
#include "embedding/line.h"
#include "graph/algorithms.h"
#include "kernels/kernels.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "obs/metrics.h"
#include "train/checkpoint.h"
#include "train/hogwild.h"
#include "train/lr_schedule.h"
#include "train/sgd_driver.h"
#include "train/sharded_rng.h"
#include "train/thread_pool.h"
#include "util/random.h"

namespace deepdirect::train {
namespace {

TEST(LrScheduleTest, ClampedLinearMatchesWord2vecDecay) {
  const LrSchedule lr{0.05, 0.01, LrSchedule::Decay::kClampedLinear};
  EXPECT_DOUBLE_EQ(lr.At(0, 100), 0.05);
  EXPECT_DOUBLE_EQ(lr.At(50, 100), 0.05 * 0.5);
  // Past the floor the rate clamps at initial · min_fraction.
  EXPECT_DOUBLE_EQ(lr.At(99, 100), 0.05 * 0.01);
  EXPECT_DOUBLE_EQ(lr.At(100, 100), 0.05 * 0.01);
}

TEST(LrScheduleTest, InterpolatedLinearEndsExactlyAtFloor) {
  const LrSchedule lr{0.1, 0.1, LrSchedule::Decay::kInterpolatedLinear};
  EXPECT_DOUBLE_EQ(lr.At(0, 200), 0.1);
  EXPECT_DOUBLE_EQ(lr.At(100, 200), 0.1 * (1.0 - 0.9 * 0.5));
  EXPECT_DOUBLE_EQ(lr.At(200, 200), 0.1 * 0.1);
}

TEST(LrScheduleTest, ZeroTotalReturnsInitial) {
  const LrSchedule lr{0.05, 0.01, LrSchedule::Decay::kClampedLinear};
  EXPECT_DOUBLE_EQ(lr.At(0, 0), 0.05);
}

TEST(LrScheduleTest, RateIsNeverNegativeOrNanThroughTheFinalStep) {
  // Both decay forms, including a zero floor, must stay finite and
  // non-negative across the whole budget and land exactly on
  // initial · min_fraction at t = T (the step the Hogwild stride
  // partition can actually reach).
  for (const auto decay : {LrSchedule::Decay::kClampedLinear,
                           LrSchedule::Decay::kInterpolatedLinear}) {
    for (const double min_fraction : {0.0, 0.01, 0.5, 1.0}) {
      const LrSchedule lr{0.05, min_fraction, decay};
      for (const uint64_t total : {uint64_t{1}, uint64_t{7},
                                   uint64_t{1'000'000}}) {
        for (const uint64_t step : {uint64_t{0}, total / 2, total - 1,
                                    total}) {
          const double rate = lr.At(step, total);
          EXPECT_TRUE(std::isfinite(rate))
              << "decay " << static_cast<int>(decay) << " step " << step
              << "/" << total;
          EXPECT_GE(rate, 0.0);
          EXPECT_LE(rate, 0.05);
        }
        EXPECT_DOUBLE_EQ(lr.At(total, total), 0.05 * min_fraction);
      }
    }
  }
}

TEST(ShardedRngTest, ShardsAreReproducible) {
  const ShardedRng shards(77);
  util::Rng a = shards.MakeShard(3);
  util::Rng b = shards.MakeShard(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(ShardedRngTest, ManyShardStreamsArePairwiseIndependent) {
  // Every pair of worker streams must be decorrelated, not just shard 0
  // and 1: a weak mixing constant could collapse two distant shards onto
  // the same Weyl point while the adjacent-shard test still passes.
  constexpr size_t kShards = 8;
  constexpr size_t kDraws = 64;
  const ShardedRng shards(123);
  std::vector<std::vector<uint64_t>> streams(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    util::Rng rng = shards.MakeShard(s);
    for (size_t i = 0; i < kDraws; ++i) streams[s].push_back(rng.Next());
  }
  for (size_t a = 0; a < kShards; ++a) {
    for (size_t b = a + 1; b < kShards; ++b) {
      size_t matches = 0;
      for (size_t i = 0; i < kDraws; ++i) {
        matches += streams[a][i] == streams[b][i];
      }
      EXPECT_LT(matches, 2u) << "shard " << a << " vs shard " << b;
    }
  }
}

TEST(ShardedRngTest, ShardsDifferFromEachOtherAndTheBaseStream) {
  const ShardedRng shards(77);
  util::Rng base(77);
  util::Rng s0 = shards.MakeShard(0);
  util::Rng s1 = shards.MakeShard(1);
  // Compare a prefix of each stream; identical streams would match on all.
  int s0_vs_s1 = 0, s0_vs_base = 0;
  for (int i = 0; i < 64; ++i) {
    const uint64_t v0 = s0.Next(), v1 = s1.Next(), vb = base.Next();
    s0_vs_s1 += (v0 == v1);
    s0_vs_base += (v0 == vb);
  }
  EXPECT_LT(s0_vs_s1, 2);
  EXPECT_LT(s0_vs_base, 2);
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitMakesTaskWritesVisible) {
  ThreadPool pool(2);
  int value = 0;
  pool.Submit([&] { value = 42; });
  pool.Wait();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, ZeroTasksReturnsWithoutRunningAnything) {
  ThreadPool pool(3);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  pool.Wait();  // nothing in flight: must not hang
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, MoreWorkersThanTasksRunsEachExactlyOnce) {
  // Idle workers must neither steal a task twice nor deadlock the drain.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::HardwareConcurrency());
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(SgdDriverTest, SerialPathMatchesInlineLoopBitForBit) {
  // The driver's one-worker path must consume the caller's Rng exactly like
  // a hand-written loop: same draws, same lr sequence, same final params.
  const uint64_t kSteps = 1000;
  const LrSchedule lr{0.05, 0.01, LrSchedule::Decay::kClampedLinear};

  std::vector<float> params_a(64, 0.0f);
  util::Rng rng_a(5);
  for (uint64_t step = 0; step < kSteps; ++step) {
    const double rate = lr.At(step, kSteps);
    const size_t i = rng_a.NextIndex(params_a.size());
    params_a[i] += static_cast<float>(rate * (rng_a.NextDouble() - 0.5));
  }

  std::vector<float> params_b(64, 0.0f);
  util::Rng rng_b(5);
  SgdOptions options;
  options.steps = kSteps;
  options.num_threads = 1;
  options.lr = lr;
  SgdDriver driver(options);
  EXPECT_EQ(driver.num_workers(), 1u);
  driver.Run(rng_b, [&](auto access, const SgdStep& ctx) -> double {
    using A = decltype(access);
    const size_t i = ctx.rng.NextIndex(params_b.size());
    A::Store(params_b[i],
             A::Load(params_b[i]) +
                 static_cast<float>(ctx.lr * (ctx.rng.NextDouble() - 0.5)));
    return 0.0;
  });

  for (size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(params_a[i], params_b[i]) << "param " << i;
  }
  // Both consumed the same number of draws from the same stream.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

TEST(SgdDriverTest, SerialRunSumsLosses) {
  SgdOptions options;
  options.steps = 10;
  SgdDriver driver(options);
  util::Rng rng(1);
  const double total = driver.Run(
      rng, [](auto, const SgdStep& ctx) { return static_cast<double>(ctx.step); });
  EXPECT_DOUBLE_EQ(total, 45.0);  // 0 + 1 + … + 9
}

TEST(SgdDriverTest, MultiWorkerCoversEveryStepExactlyOnce) {
  const uint64_t kSteps = 10'000;
  SgdOptions options;
  options.steps = kSteps;
  options.num_threads = 4;
  options.shard_seed = 9;
  SgdDriver driver(options);
  EXPECT_EQ(driver.num_workers(), 4u);

  std::vector<std::atomic<int>> hits(kSteps);
  util::Rng rng(1);
  const double total =
      driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
        hits[ctx.step].fetch_add(1, std::memory_order_relaxed);
        return 1.0;
      });
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kSteps));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SgdDriverTest, MultiWorkerStridesSweepTheFullDecay) {
  // Every worker must see both early (high-lr) and late (low-lr) steps.
  SgdOptions options;
  options.steps = 1000;
  options.num_threads = 4;
  options.lr = {1.0, 0.0, LrSchedule::Decay::kInterpolatedLinear};
  SgdDriver driver(options);

  std::vector<std::atomic<int>> early(4), late(4);
  util::Rng rng(1);
  driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
    if (ctx.lr > 0.9) early[ctx.worker].fetch_add(1);
    if (ctx.lr < 0.1) late[ctx.worker].fetch_add(1);
    return 0.0;
  });
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_GT(early[w].load(), 0) << "worker " << w;
    EXPECT_GT(late[w].load(), 0) << "worker " << w;
  }
}

TEST(SgdDriverTest, WorkerCountNeverExceedsSteps) {
  SgdOptions options;
  options.steps = 3;
  options.num_threads = 16;
  EXPECT_EQ(SgdDriver(options).num_workers(), 3u);
  options.steps = 0;
  EXPECT_EQ(SgdDriver(options).num_workers(), 1u);
}

TEST(SgdDriverTest, HogwildUpdatesLandFromAllWorkers) {
  // Concurrent relaxed-atomic increments on one shared accumulator: every
  // step's update must land (no lost wakeups from the pool, no skipped
  // strides). Single-float Hogwild increments would lose updates by design;
  // per-worker slots make the check exact.
  const uint64_t kSteps = 8'000;
  SgdOptions options;
  options.steps = kSteps;
  options.num_threads = 4;
  SgdDriver driver(options);

  std::vector<double> per_worker(driver.num_workers(), 0.0);
  util::Rng rng(3);
  driver.Run(rng, [&](auto access, const SgdStep& ctx) -> double {
    using A = decltype(access);
    A::Store(per_worker[ctx.worker], A::Load(per_worker[ctx.worker]) + 1.0);
    return 0.0;
  });
  double landed = 0.0;
  for (double v : per_worker) landed += v;
  EXPECT_DOUBLE_EQ(landed, static_cast<double>(kSteps));
}

TEST(SgdDriverTest, LossIsSampledByStepIndexAlone) {
  // A step samples its loss exactly when the run records telemetry (the
  // registry is on and the prefix is not empty) and its index is a
  // multiple of kLossSampleSteps: on the serial path, the Hogwild path and
  // under a shard plan. Sampling changes no step and no draw.
  struct Case {
    const char* name;
    size_t threads;
    size_t shards;
  };
  const Case cases[] = {{"serial", 1, 0}, {"hogwild", 2, 0}, {"shards", 2, 3}};
  // Per worker, in execution order: (step, first draw, sample_loss).
  using Log = std::vector<std::vector<std::tuple<uint64_t, uint64_t, bool>>>;
  // A run's log and the next draw of the caller's Rng after it.
  using Trace = std::pair<Log, uint64_t>;
  obs::Registry& registry = obs::Registry::Default();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run = [&](bool enabled, const std::string& prefix) {
      registry.Reset();
      registry.set_enabled(enabled);
      SgdOptions options;
      options.steps = 1000;
      options.steps_per_epoch = 300;
      options.num_threads = c.threads;
      options.shard_seed = 4;
      options.metrics_prefix = prefix;
      options.shard_plan.num_shards = c.shards;
      if (c.shards > 0) options.shard_plan.shard_weights = {1.0, 2.0, 3.0};
      SgdDriver driver(options);
      Log log(driver.num_workers());
      util::Rng rng(8);
      driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
        log[ctx.worker].emplace_back(ctx.step, ctx.rng.Next(),
                                     ctx.sample_loss);
        return 0.0;
      });
      registry.set_enabled(false);
      return Trace(std::move(log), rng.Next());
    };
    Trace recorded = run(true, "test.sampling");
    size_t sampled = 0;
    for (size_t w = 0; w < recorded.first.size(); ++w) {
      size_t worker_sampled = 0;
      for (auto& [step, draw, sample] : recorded.first[w]) {
        EXPECT_EQ(sample, step % kLossSampleSteps == 0) << "step " << step;
        worker_sampled += sample;
        sample = false;
      }
      // With a prime k, every strided worker meets sampled steps.
      EXPECT_GT(worker_sampled, 0u) << "worker " << w;
      sampled += worker_sampled;
    }
    EXPECT_GE(sampled, 1000 / kLossSampleSteps);
    // Registry off, or no prefix: no step samples, and every step draws
    // what it drew in the recorded run.
    EXPECT_EQ(run(false, "test.sampling"), recorded);
    EXPECT_EQ(run(true, ""), recorded);
  }
  registry.Reset();
}

TEST(SgdDriverTest, ReadAheadSeesEachWorkersNextStepsWithinItsChunk) {
  // A two-phase body that draws up to kDepth steps ahead. On the serial
  // path, the Hogwild path and under a shard plan, each worker draws
  // exactly the steps it then trains, in the same order, and takes the
  // same draws as a one-phase body. No step is drawn past the end of the
  // epoch chunk being trained, so every drawn step has been trained when
  // the epoch ends.
  struct Case {
    const char* name;
    size_t threads;
    size_t shards;
  };
  const Case cases[] = {{"serial", 1, 0}, {"hogwild", 2, 0}, {"shards", 2, 3}};
  constexpr uint64_t kSpe = 300;
  constexpr size_t kDepth = 40;
  // Per worker, in execution order: (step, shard, first draw).
  using Log = std::vector<std::vector<std::tuple<uint64_t, size_t, uint64_t>>>;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SgdOptions options;
    options.steps = 1000;
    options.steps_per_epoch = kSpe;
    options.num_threads = c.threads;
    options.shard_seed = 4;
    options.shard_plan.num_shards = c.shards;
    if (c.shards > 0) options.shard_plan.shard_weights = {1.0, 2.0, 3.0};

    Log plain(c.threads);
    util::Rng plain_rng(8);
    SgdDriver(options).Run(plain_rng, [&](auto, const SgdStep& ctx) {
      plain[ctx.worker].emplace_back(ctx.step, ctx.shard, ctx.rng.Next());
      return 0.0;
    });

    Log drawn(c.threads);
    std::vector<std::vector<uint64_t>> trained(c.threads);
    std::vector<std::deque<uint64_t>> pending(c.threads);
    std::vector<size_t> deepest(c.threads, 0);
    uint64_t boundaries = 0;
    options.epoch_end = [&](const EpochEnd&) {
      ++boundaries;
      for (const auto& queue : pending) EXPECT_TRUE(queue.empty());
    };
    util::Rng rng(8);
    SgdDriver(options).Run(
        rng, TwoPhase{
                 [&](const SgdStep& ctx) {
                   drawn[ctx.worker].emplace_back(ctx.step, ctx.shard,
                                                  ctx.rng.Next());
                   pending[ctx.worker].push_back(ctx.step);
                   deepest[ctx.worker] = std::max(deepest[ctx.worker],
                                                  pending[ctx.worker].size());
                 },
                 [&](size_t worker) { return pending[worker].size() < kDepth; },
                 [&](auto, const SgdStep& ctx) {
                   std::deque<uint64_t>& queue = pending[ctx.worker];
                   EXPECT_FALSE(queue.empty());
                   if (queue.empty()) return 0.0;
                   EXPECT_EQ(queue.front(), ctx.step);
                   EXPECT_EQ(queue.back() / kSpe, ctx.step / kSpe)
                       << "drew step " << queue.back() << " past the chunk of "
                       << ctx.step;
                   queue.pop_front();
                   trained[ctx.worker].push_back(ctx.step);
                   return 0.0;
                 }});
    EXPECT_EQ(boundaries, 4u);
    EXPECT_EQ(drawn, plain);
    EXPECT_EQ(rng.Next(), plain_rng.Next());
    for (size_t w = 0; w < c.threads; ++w) {
      ASSERT_EQ(trained[w].size(), plain[w].size()) << "worker " << w;
      for (size_t i = 0; i < trained[w].size(); ++i) {
        EXPECT_EQ(trained[w][i], std::get<0>(plain[w][i])) << "worker " << w;
      }
      EXPECT_EQ(deepest[w], kDepth) << "worker " << w << " never drew ahead";
    }
  }
}

TEST(SgdDriverTest, ShardedHogwildStridesSweepTheFullDecay) {
  // Shard quotas follow shard mass: at 3:1 worker 0 runs 750 of the 1000
  // steps and worker 1 runs 250. Each must still walk the decay once, in
  // order, from the top to the floor.
  SgdOptions options;
  options.steps = 1000;
  options.num_threads = 2;
  options.lr = {1.0, 0.0, LrSchedule::Decay::kInterpolatedLinear};
  options.shard_plan.num_shards = 2;
  options.shard_plan.shard_weights = {3.0, 1.0};
  SgdDriver driver(options);
  ASSERT_EQ(driver.num_workers(), 2u);

  std::vector<std::vector<uint64_t>> steps(2);
  std::vector<std::vector<double>> rates(2);
  util::Rng rng(1);
  driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
    steps[ctx.worker].push_back(ctx.step);
    rates[ctx.worker].push_back(ctx.lr);
    return 0.0;
  });
  EXPECT_EQ(steps[0].size(), 750u);
  EXPECT_EQ(steps[1].size(), 250u);
  for (size_t w = 0; w < 2; ++w) {
    ASSERT_FALSE(steps[w].empty()) << "worker " << w;
    EXPECT_TRUE(std::is_sorted(steps[w].begin(), steps[w].end()))
        << "worker " << w;
    EXPECT_GT(rates[w].front(), 0.9) << "worker " << w;
    EXPECT_LT(rates[w].back(), 0.1) << "worker " << w;
  }
}

TEST(SgdDriverTest, ShardedHogwildInterleavesEveryShardOverTheDecay) {
  // 4 shards on 2 workers with about ten rounds each: every shard's quota
  // runs exactly, and every shard (not just every worker) starts near the
  // top of the decay and ends near the floor.
  SgdOptions options;
  options.steps = 120'001;
  options.num_threads = 2;
  options.lr = {1.0, 0.0, LrSchedule::Decay::kInterpolatedLinear};
  options.shard_plan.num_shards = 4;
  options.shard_plan.shard_weights = {1.0, 2.0, 3.0, 4.0};
  SgdDriver driver(options);
  ASSERT_EQ(driver.num_workers(), 2u);

  // Shard s runs only on worker s % 2, so each shard's log has one writer.
  std::vector<std::vector<double>> rates(4);
  util::Rng rng(1);
  driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
    rates.at(ctx.shard).push_back(ctx.lr);
    return 0.0;
  });
  // Largest remainder: 12000.1, 24000.2, 36000.3 and 48000.4 steps; the
  // spare step goes to the largest fraction.
  const std::vector<size_t> quota = {12000, 24000, 36000, 48001};
  for (size_t s = 0; s < 4; ++s) {
    ASSERT_EQ(rates[s].size(), quota[s]) << "shard " << s;
    EXPECT_GT(rates[s].front(), 0.9) << "shard " << s;
    EXPECT_LT(rates[s].back(), 0.1) << "shard " << s;
  }
}

TEST(SgdDriverTest, FewerShardsThanWorkersKeepsEveryWorkerBusy) {
  // A plan with fewer shards than workers would pin both shards to two of
  // the four workers and leave the other two idle. The driver runs the
  // Hogwild strides instead: every worker runs a quarter of the steps, and
  // every step runs once.
  SgdOptions options;
  options.steps = 1000;
  options.num_threads = 4;
  options.shard_plan.num_shards = 2;
  options.shard_plan.shard_weights = {3.0, 1.0};
  SgdDriver driver(options);
  ASSERT_EQ(driver.num_workers(), 4u);

  std::vector<std::atomic<int>> per_worker(4), hits(options.steps);
  util::Rng rng(1);
  driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
    per_worker[ctx.worker].fetch_add(1, std::memory_order_relaxed);
    hits[ctx.step].fetch_add(1, std::memory_order_relaxed);
    return 0.0;
  });
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(per_worker[w].load(), 250) << "worker " << w;
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SgdDriverTest, SerialBodyGetsTheCallersDenseBlock) {
  std::vector<double> block(5, 0.0);
  SgdOptions options;
  options.steps = 10;
  options.dense = block;
  SgdDriver driver(options);
  util::Rng rng(1);
  driver.Run(rng, [&](auto, const SgdStep& ctx) -> double {
    EXPECT_EQ(ctx.dense.data(), block.data());
    EXPECT_EQ(ctx.dense.size(), block.size());
    ctx.dense[0] += 1.0;
    return 0.0;
  });
  EXPECT_EQ(block[0], 10.0);
}

TEST(SgdDriverTest, HogwildDenseBlockLosesNoUpdate) {
  // Every step adds 1.0 to one double of the dense block. Racy Hogwild
  // increments on a shared double would lose some; merged worker copies
  // lose none, and the block is exact at every epoch boundary.
  constexpr uint64_t kSteps = 20'000;
  for (const size_t threads : {size_t{4}, size_t{8}}) {
    std::vector<double> block(3, 0.0);
    SgdOptions options;
    options.steps = kSteps;
    options.steps_per_epoch = 100;
    options.num_threads = threads;
    options.shard_seed = 5;
    options.dense = block;
    uint64_t boundaries = 0;
    options.epoch_end = [&](const EpochEnd& end) {
      ++boundaries;
      EXPECT_EQ(block[0], static_cast<double>(end.next_step))
          << threads << " workers, epoch " << end.epoch;
    };
    SgdDriver driver(options);
    ASSERT_EQ(driver.num_workers(), threads);
    util::Rng rng(1);
    driver.Run(rng, [&](auto access, const SgdStep& ctx) -> double {
      using A = decltype(access);
      EXPECT_NE(ctx.dense.data(), block.data());
      EXPECT_EQ(ctx.dense.size(), block.size());
      A::Store(ctx.dense[0], A::Load(ctx.dense[0]) + 1.0);
      return 0.0;
    });
    EXPECT_EQ(boundaries, kSteps / 100);
    EXPECT_EQ(block[0], static_cast<double>(kSteps)) << threads << " workers";
    EXPECT_EQ(block[1], 0.0);
    EXPECT_EQ(block[2], 0.0);
  }
}

TEST(SgdDriverTest, HogwildDenseCopiesSeeOwnStepsAndMergedOnes) {
  // One epoch, so only the periodic merges can bring other workers' steps
  // into a copy. A worker's copy never drops its own steps. The worker
  // whose first merge comes last refreshes from a block that already holds
  // every other worker's first merge, so some step sees more than its own
  // worker's share.
  constexpr uint64_t kSteps = 40'000;
  constexpr size_t kWorkers = 4;
  std::vector<double> block(1, 0.0);
  SgdOptions options;
  options.steps = kSteps;
  options.num_threads = kWorkers;
  options.dense = block;
  SgdDriver driver(options);
  std::vector<uint64_t> own(kWorkers, 0);
  std::vector<double> seen(kWorkers, 0.0);
  util::Rng rng(1);
  driver.Run(rng, [&](auto access, const SgdStep& ctx) -> double {
    using A = decltype(access);
    const double before = A::Load(ctx.dense[0]);
    EXPECT_GE(before, static_cast<double>(own[ctx.worker]));
    A::Store(ctx.dense[0], before + 1.0);
    ++own[ctx.worker];
    seen[ctx.worker] = before + 1.0;
    return 0.0;
  });
  EXPECT_EQ(block[0], static_cast<double>(kSteps));
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(own[w], kSteps / kWorkers);
    EXPECT_LE(seen[w], static_cast<double>(kSteps));
  }
  EXPECT_GT(*std::max_element(seen.begin(), seen.end()),
            static_cast<double>(kSteps / kWorkers));
}

TEST(HogwildAccessTest, PoliciesAgreeOnRowHelpers) {
  std::vector<float> a{0.5f, -1.25f, 2.0f};
  std::vector<float> b{1.0f, 0.25f, -0.5f};
  const double serial = kernels::DotRows<SerialAccess>(a, b);
  const double hogwild = kernels::DotRows<HogwildAccess>(a, b);
  EXPECT_EQ(serial, hogwild);

  std::vector<float> y1 = a, y2 = a;
  kernels::AxpyRows<SerialAccess>(y1, 0.3, b);
  kernels::AxpyRows<HogwildAccess>(y2, 0.3, b);
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

// ------------------------------------------ Resume determinism goldens
//
// The checkpoint/resume contract, proven on every production trainer: an
// interrupted run (simulated preemption after k epochs) that is then
// resumed in a fresh process must finish bit-identical to the
// uninterrupted run at num_threads = 1, and must recover the same learned
// structure at num_threads = 4 (Hogwild interleavings are not
// bit-reproducible, so the multi-threaded contract is over eval metrics).

// Scratch checkpoint directory, wiped before and after each use.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr const char* kDenseSections[] = {"meta", "trainer", "rng", "dense"};
constexpr container::Format kDenseTable{kCheckpointMagic, kCheckpointVersion,
                                        0, kDenseSections};

// Hogwild run of a counting trainer: every step adds 1.0 to dense[0], with
// a checkpoint at every epoch boundary (100 steps). Returns the block.
std::vector<double> RunCountingTrainer(const std::string& dir, bool resume,
                                       uint64_t stop_after_epochs) {
  std::vector<double> block(2, 0.0);
  SgdOptions options;
  options.steps = 1000;
  options.steps_per_epoch = 100;
  options.num_threads = 4;
  options.shard_seed = 3;
  CheckpointOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.trainer = "dense_counter";
  ckpt_options.policy.keep_last = 0;
  ckpt_options.resume = resume;
  ckpt_options.stop_after_epochs = stop_after_epochs;
  Checkpointer checkpointer(
      ckpt_options,
      RunShape{options.steps, options.steps_per_epoch, options.shard_seed,
               options.lr},
      kDenseTable, {std::as_writable_bytes(std::span(block))});
  util::Rng rng(9);
  options.start_epoch = checkpointer.Resume(rng);
  options.checkpointer = &checkpointer;
  options.dense = block;
  SgdDriver driver(options);
  driver.Run(rng, [](auto access, const SgdStep& ctx) -> double {
    using A = decltype(access);
    A::Store(ctx.dense[0], A::Load(ctx.dense[0]) + 1.0);
    return 0.0;
  });
  return block;
}

TEST(SgdDriverTest, HogwildCheckpointsTheMergedDenseBlockAndResumes) {
  ScratchDir dir("sgd_driver_dense_ckpt");
  const std::vector<double> partial =
      RunCountingTrainer(dir.path(), false, 4);
  EXPECT_EQ(partial[0], 400.0);

  // Every snapshot holds exactly the steps of the epochs before it.
  size_t snapshots = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    const std::string path = entry.path().string();
    std::string bytes;
    ASSERT_TRUE(ReadCheckpointFile(path, &bytes).ok());
    CheckpointMeta meta;
    auto data = OpenCheckpoint(kDenseTable, "dense_counter", path, bytes,
                               &meta);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    const auto section = data.value().Array<std::byte>(3);
    std::array<double, 2> saved;
    ASSERT_EQ(section.size(), sizeof(saved));
    std::memcpy(saved.data(), section.data(), sizeof(saved));
    const std::string name = entry.path().filename().string();
    const uint64_t epochs = std::stoull(name.substr(name.find('-') + 1));
    EXPECT_EQ(meta.epochs_done, epochs) << name;
    EXPECT_EQ(saved[0], 100.0 * static_cast<double>(epochs)) << name;
    ++snapshots;
  }
  EXPECT_EQ(snapshots, 4u);

  const std::vector<double> resumed = RunCountingTrainer(dir.path(), true, 0);
  EXPECT_EQ(resumed[0], 1000.0);
  EXPECT_EQ(resumed[1], 0.0);
}

data::GeneratorConfig SmallNetConfig() {
  data::GeneratorConfig config;
  config.num_nodes = 80;
  config.ties_per_node = 3.0;
  config.seed = 11;
  return config;
}

TEST(ResumeGoldenTest, LineResumeIsBitIdentical) {
  const auto net = data::GenerateStatusNetwork(SmallNetConfig());
  embedding::LineConfig config;
  config.dimensions = 8;
  config.samples_per_arc = 10;  // 10 epochs of num_arcs steps
  const auto straight = embedding::LineEmbedding::Train(net, config);

  ScratchDir dir("resume_golden_line");
  config.checkpoint.dir = dir.path();
  config.checkpoint.stop_after_epochs = 4;
  embedding::LineEmbedding::Train(net, config);  // interrupted

  config.checkpoint.stop_after_epochs = 0;
  config.checkpoint.resume = true;
  const auto resumed = embedding::LineEmbedding::Train(net, config);
  for (graph::NodeId u = 0; u < net.num_nodes(); ++u) {
    const auto sf = straight.FirstOrder(u);
    const auto rf = resumed.FirstOrder(u);
    const auto ss = straight.SecondOrder(u);
    const auto rs = resumed.SecondOrder(u);
    for (size_t k = 0; k < sf.size(); ++k) {
      ASSERT_EQ(rf[k], sf[k]) << "node " << u << " first[" << k << "]";
      ASSERT_EQ(rs[k], ss[k]) << "node " << u << " second[" << k << "]";
    }
  }
}

ml::Dataset SeparableDataset() {
  ml::Dataset data(2);
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double x0 = rng.NextDoubleIn(-1, 1);
    const double x1 = rng.NextDoubleIn(-1, 1);
    data.Add(std::vector<double>{x0, x1}, x0 > x1 ? 1.0 : 0.0);
  }
  return data;
}

TEST(ResumeGoldenTest, LogisticRegressionResumeIsBitIdentical) {
  // The D-Step trainer. The epoch shuffle permutes the visit order
  // cumulatively, so this golden also proves the order is checkpointed.
  const auto data = SeparableDataset();
  ml::LogisticRegressionConfig config;
  config.epochs = 10;
  ml::LogisticRegression straight(2);
  const double straight_loss = straight.Train(data, config);

  ScratchDir dir("resume_golden_logreg");
  config.checkpoint.dir = dir.path();
  config.checkpoint.stop_after_epochs = 4;
  ml::LogisticRegression interrupted(2);
  interrupted.Train(data, config);

  config.checkpoint.stop_after_epochs = 0;
  config.checkpoint.resume = true;
  ml::LogisticRegression resumed(2);
  const double resumed_loss = resumed.Train(data, config);
  EXPECT_EQ(resumed.weights(), straight.weights());
  EXPECT_EQ(resumed.bias(), straight.bias());
  EXPECT_EQ(resumed_loss, straight_loss);
}

graph::HiddenDirectionSplit SmallSplit() {
  const auto net = data::GenerateStatusNetwork(SmallNetConfig());
  util::Rng rng(12);
  return graph::HideDirections(net, 0.4, rng);
}

core::DeepDirectConfig SmallDeepDirectConfig() {
  core::DeepDirectConfig config;
  config.dimensions = 8;
  config.epochs = 4.0;
  config.d_step.epochs = 10;
  return config;
}

void ExpectModelsBitIdentical(const core::DeepDirectModel& a,
                              const core::DeepDirectModel& b) {
  EXPECT_EQ(a.embeddings().data(), b.embeddings().data());
  EXPECT_EQ(a.e_step_weights(), b.e_step_weights());
  EXPECT_EQ(a.e_step_bias(), b.e_step_bias());
  EXPECT_EQ(a.d_step_regression().weights(), b.d_step_regression().weights());
  EXPECT_EQ(a.d_step_regression().bias(), b.d_step_regression().bias());
}

TEST(ResumeGoldenTest, DeepDirectEStepResumeIsBitIdentical) {
  // Preemption mid-E-Step: the partial model must skip the D-Step (the
  // interrupted process never reached it), and the resumed run must finish
  // bit-identical to the uninterrupted one, D-Step included.
  const auto split = SmallSplit();
  const auto straight =
      core::DeepDirectModel::Train(split.network, SmallDeepDirectConfig());

  ScratchDir dir("resume_golden_estep");
  auto config = SmallDeepDirectConfig();
  config.checkpoint.dir = dir.path();
  config.checkpoint.stop_after_epochs = 2;
  const auto partial = core::DeepDirectModel::Train(split.network, config);
  // The D-Step never ran: its weights are still the zero init.
  for (double w : partial->d_step_regression().weights()) {
    EXPECT_EQ(w, 0.0);
  }

  config.checkpoint.stop_after_epochs = 0;
  config.checkpoint.resume = true;
  const auto resumed = core::DeepDirectModel::Train(split.network, config);
  ExpectModelsBitIdentical(*resumed, *straight);
}

TEST(ResumeGoldenTest, DeepDirectDStepResumeIsBitIdentical) {
  // Preemption mid-D-Step: the resume process replays the E-Step tail from
  // its newest checkpoint (boundaries after the last write re-run on the
  // restored RNG stream), then resumes the D-Step from its own checkpoint.
  const auto split = SmallSplit();
  const auto straight =
      core::DeepDirectModel::Train(split.network, SmallDeepDirectConfig());

  ScratchDir dir("resume_golden_dstep");
  auto config = SmallDeepDirectConfig();
  config.checkpoint.dir = dir.path();
  config.d_step.checkpoint.dir = dir.path();
  config.d_step.checkpoint.stop_after_epochs = 4;
  core::DeepDirectModel::Train(split.network, config);  // interrupted

  config.d_step.checkpoint.stop_after_epochs = 0;
  config.checkpoint.resume = true;
  config.d_step.checkpoint.resume = true;
  const auto resumed = core::DeepDirectModel::Train(split.network, config);
  ExpectModelsBitIdentical(*resumed, *straight);
}

// ------------------------------------------ Resume binds to the input
//
// A checkpoint resumes only a run on the input it was trained on: at
// num_threads = 1, resuming into a directory that a run on other input
// wrote must equal a fresh run bit for bit.

TEST(ResumeBindingTest, DeepDirectOnAnotherHiddenSplitTrainsFresh) {
  const auto net = data::GenerateStatusNetwork(SmallNetConfig());
  util::Rng rng_a(12);
  util::Rng rng_b(13);
  const auto split_a = graph::HideDirections(net, 0.4, rng_a);
  const auto split_b = graph::HideDirections(net, 0.4, rng_b);

  ScratchDir dir("resume_binding_deepdirect");
  auto config = SmallDeepDirectConfig();
  config.checkpoint.dir = dir.path();
  config.d_step.checkpoint.dir = dir.path();
  core::DeepDirectModel::Train(split_a.network, config);

  config.checkpoint.resume = true;
  config.d_step.checkpoint.resume = true;
  const auto resumed = core::DeepDirectModel::Train(split_b.network, config);
  const auto fresh =
      core::DeepDirectModel::Train(split_b.network, SmallDeepDirectConfig());
  ExpectModelsBitIdentical(*resumed, *fresh);
}

TEST(ResumeBindingTest, LogisticRegressionOnAFlippedLabelTrainsFresh) {
  const auto data = SeparableDataset();
  ml::Dataset flipped(2);
  for (size_t i = 0; i < data.size(); ++i) {
    flipped.Add(data.Row(i), i == 0 ? 1.0 - data.Label(i) : data.Label(i));
  }
  ml::LogisticRegressionConfig config;
  config.epochs = 10;
  ml::LogisticRegression fresh(2);
  const double fresh_loss = fresh.Train(flipped, config);

  ScratchDir dir("resume_binding_logreg");
  config.checkpoint.dir = dir.path();
  ml::LogisticRegression(2).Train(data, config);
  config.checkpoint.resume = true;
  ml::LogisticRegression resumed(2);
  const double resumed_loss = resumed.Train(flipped, config);
  EXPECT_EQ(resumed.weights(), fresh.weights());
  EXPECT_EQ(resumed.bias(), fresh.bias());
  EXPECT_EQ(resumed_loss, fresh_loss);
}

TEST(ResumeBindingTest, LineOnARelabeledNetTrainsFresh) {
  const auto net = data::GenerateStatusNetwork(SmallNetConfig());
  const graph::NodeId last = static_cast<graph::NodeId>(net.num_nodes() - 1);
  graph::GraphBuilder builder(net.num_nodes());
  for (const TieDelta& tie : core::ExtractTies(net)) {
    ASSERT_TRUE(builder.AddTie(last - tie.u, last - tie.v, tie.type).ok());
  }
  const graph::MixedSocialNetwork relabeled = std::move(builder).Build();
  ASSERT_EQ(relabeled.num_arcs(), net.num_arcs());

  embedding::LineConfig config;
  config.dimensions = 8;
  config.samples_per_arc = 10;
  const auto fresh = embedding::LineEmbedding::Train(relabeled, config);

  ScratchDir dir("resume_binding_line");
  config.checkpoint.dir = dir.path();
  embedding::LineEmbedding::Train(net, config);
  config.checkpoint.resume = true;
  const auto resumed = embedding::LineEmbedding::Train(relabeled, config);
  for (graph::NodeId u = 0; u < relabeled.num_nodes(); ++u) {
    const auto ff = fresh.FirstOrder(u);
    const auto rf = resumed.FirstOrder(u);
    const auto fs = fresh.SecondOrder(u);
    const auto rs = resumed.SecondOrder(u);
    for (size_t k = 0; k < ff.size(); ++k) {
      ASSERT_EQ(rf[k], ff[k]) << "node " << u << " first[" << k << "]";
      ASSERT_EQ(rs[k], fs[k]) << "node " << u << " second[" << k << "]";
    }
  }
}

TEST(ResumeGoldenTest, LogisticRegressionResumeMultiThreadedLearns) {
  // Hogwild resume is not bit-reproducible; the contract is that the
  // resumed run trains to the same quality as an uninterrupted one.
  const auto data = SeparableDataset();
  ml::LogisticRegressionConfig config;
  config.epochs = 50;
  config.num_threads = 4;

  ScratchDir dir("resume_golden_logreg_mt");
  config.checkpoint.dir = dir.path();
  config.checkpoint.stop_after_epochs = 20;
  ml::LogisticRegression interrupted(2);
  interrupted.Train(data, config);

  config.checkpoint.stop_after_epochs = 0;
  config.checkpoint.resume = true;
  ml::LogisticRegression resumed(2);
  resumed.Train(data, config);

  int correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double p = resumed.Predict(data.Row(i));
    correct += (p >= 0.5) == (data.Label(i) == 1.0);
  }
  EXPECT_GT(correct, static_cast<int>(data.size()) * 9 / 10);
  EXPECT_GT(resumed.weights()[0], 0.0);
  EXPECT_LT(resumed.weights()[1], 0.0);
}

TEST(ResumeGoldenTest, DeepDirectResumeMultiThreadedStaysAccurate) {
  const auto split = SmallSplit();
  auto config = SmallDeepDirectConfig();
  config.epochs = 6.0;
  config.num_threads = 4;
  config.d_step.num_threads = 4;

  ScratchDir dir("resume_golden_deepdirect_mt");
  config.checkpoint.dir = dir.path();
  config.checkpoint.stop_after_epochs = 3;
  core::DeepDirectModel::Train(split.network, config);  // interrupted

  config.checkpoint.stop_after_epochs = 0;
  config.checkpoint.resume = true;
  const auto resumed = core::DeepDirectModel::Train(split.network, config);
  for (float v : resumed->embeddings().data()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(core::DirectionDiscoveryAccuracy(split, *resumed), 0.55);
}

}  // namespace
}  // namespace deepdirect::train
