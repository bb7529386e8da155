// Training observability: a lightweight, thread-safe metrics registry.
//
// Three metric kinds cover the training telemetry this repo emits:
//   * Counter   — monotonically increasing event count (sampler collisions,
//                 loaded ties, extractor calls);
//   * Gauge     — last-value-wins scalar (examples/sec of the latest run);
//   * Histogram — value distribution with count/sum/min/max and log2
//                 buckets for quantile estimates (phase durations,
//                 per-worker step counts).
// Counters and histograms are sharded: each thread writes a relaxed-atomic
// cell chosen by a thread-local shard index, so Hogwild workers never
// contend on one cache line; shards are merged when a Snapshot is taken.
// The registry additionally stores *series* — append-only value lists
// (per-epoch losses) recorded under a mutex on cold paths only.
//
// A runtime gate keeps the disabled cost negligible: the registry starts
// disabled, recording call sites gate on obs::Enabled() (one relaxed atomic
// load), and surfaces that want telemetry (tdl_cli --metrics-out,
// DD_BENCH_METRICS) switch it on.
// Instrumentation must never perturb training: nothing in this layer draws
// from any Rng, and loss/timing taps read values the trainers already
// compute.

#ifndef DEEPDIRECT_OBS_METRICS_H_
#define DEEPDIRECT_OBS_METRICS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace deepdirect::obs {

namespace internal {

/// Shard count for counters and histograms (power of two). Eight shards
/// comfortably cover the worker counts this repo runs (hardware threads).
inline constexpr size_t kShards = 8;

/// Stable per-thread shard index in [0, kShards).
size_t ThreadShard();

/// JSON fragment helpers shared by the snapshot, trace, and timeline
/// writers: a quoted/escaped string and a finite (inf/nan-clamped) number.
std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

/// Relaxed-atomic add on a double cell (portable CAS; atomic<double>::
/// fetch_add is not guaranteed lock-free everywhere).
inline void AtomicAddDouble(std::atomic<double>& cell, double delta) {
  double expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(expected, expected + delta,
                                     std::memory_order_relaxed)) {
  }
}

/// Relaxed-atomic min/max update on a double cell.
inline void AtomicMinDouble(std::atomic<double>& cell, double value) {
  double expected = cell.load(std::memory_order_relaxed);
  while (value < expected &&
         !cell.compare_exchange_weak(expected, value,
                                     std::memory_order_relaxed)) {
  }
}
inline void AtomicMaxDouble(std::atomic<double>& cell, double value) {
  double expected = cell.load(std::memory_order_relaxed);
  while (value > expected &&
         !cell.compare_exchange_weak(expected, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace internal

/// Monotonic event counter, sharded per thread.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Lock-free relaxed add on this thread's shard.
  void Add(uint64_t delta = 1) {
    shards_[internal::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Merged value across shards.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard (test isolation; not linearizable vs. writers).
  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell shards_[internal::kShards];
};

/// Last-value-wins scalar.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged histogram statistics exported in snapshots.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  double mean = 0.0;
  double p50 = 0.0;  ///< bucket-upper-bound estimates
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Value-distribution tracker, sharded per thread. Buckets are log2-spaced
/// from kMinBucket, so one histogram serves microsecond phase timings and
/// million-step worker budgets alike.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;
  static constexpr double kMinBucket = 1e-9;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Lock-free relaxed record on this thread's shard.
  void Observe(double value) {
    Shard& s = shards_[internal::ThreadShard()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(s.sum, value);
    internal::AtomicMinDouble(s.min, value);
    internal::AtomicMaxDouble(s.max, value);
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Merges all shards into summary statistics.
  HistogramStats Stats() const;

  /// Zeroes every shard (test isolation; not linearizable vs. writers).
  void Reset();

  /// Upper bound of bucket `index` (the quantile estimate resolution).
  static double BucketUpperBound(size_t index);

 private:
  static size_t BucketIndex(double value) {
    if (!(value > kMinBucket)) return 0;
    const int exponent = static_cast<int>(std::log2(value / kMinBucket));
    return std::min<size_t>(kBuckets - 1,
                            static_cast<size_t>(std::max(exponent, 0)) + 1);
  }

  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };
  Shard shards_[internal::kShards];
};

/// One merged, immutable view of a registry, exportable as JSON or CSV.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
  std::map<std::string, std::vector<double>> series;

  /// Whether no metric of any kind was recorded.
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           series.empty();
  }

  /// Serializes to a JSON object with "counters"/"gauges"/"histograms"/
  /// "series" sections. Non-finite values are clamped to 0 so the output is
  /// always strict JSON.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  util::Status WriteJson(const std::string& path) const;

  /// Writes long-form CSV rows (kind, name, field, value) to `path`.
  util::Status WriteCsv(const std::string& path) const;
};

/// Named metric registry. Get* registers on first use (under a mutex) and
/// returns a stable pointer the call site may cache; the metric operations
/// themselves are lock-free.
class Registry {
 public:
  /// The process-wide registry every built-in instrumentation point uses.
  static Registry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Appends one value to the named series (cold paths only: per epoch or
  /// per run — never per SGD step).
  void Append(const std::string& name, double value);

  /// Runtime recording gate; starts disabled.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Merges every metric into one snapshot.
  MetricsSnapshot Snapshot() const;

  /// Zeroes all values and clears series. Cached metric pointers stay
  /// valid (metrics are reset in place, never deallocated).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::vector<double>> series_;
  std::atomic<bool> enabled_{false};
};

/// Whether the default registry is currently recording. Instrumentation
/// call sites gate on this (one relaxed load) before touching metrics.
inline bool Enabled() { return Registry::Default().enabled(); }

}  // namespace deepdirect::obs

#endif  // DEEPDIRECT_OBS_METRICS_H_
