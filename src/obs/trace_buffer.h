// Trace timelines: a thread-sharded span buffer with Chrome trace export.
//
// While the metrics registry (metrics.h) aggregates — histograms lose the
// *when* — the trace buffer keeps every completed span as an event
// {name, tid, t_start, t_end, nesting depth}, so wall-clock time can be
// laid out per thread and inspected in Perfetto / chrome://tracing via the
// Chrome trace_event JSON export.
//
// Recording is cold-path only: a span is appended once, at scope exit,
// under a per-shard mutex (threads map to shards round-robin, so Hogwild
// workers almost never contend). Span *identity* is cheap thread-local
// state: a stable small integer thread id and a nesting-depth counter.
//
// Gating mirrors the registry: the buffer starts disabled and every
// TraceSpan checks one relaxed atomic load. Nothing here draws from any
// Rng — tracing can never perturb training.
//
// The buffer is bounded (shard_capacity events per shard); once a shard is
// full further spans are dropped and counted, so a runaway span source
// cannot exhaust memory on a long run.

#ifndef DEEPDIRECT_OBS_TRACE_BUFFER_H_
#define DEEPDIRECT_OBS_TRACE_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace deepdirect::obs {

namespace internal {

/// Stable small per-thread id for trace events (assigned on first use;
/// distinct from the shard index, which wraps at kShards).
uint32_t TraceThreadId();

/// Nesting bookkeeping for TraceSpan: Enter returns the depth *before*
/// incrementing (0 = top-level span on this thread).
uint32_t EnterSpanDepth();
void ExitSpanDepth();

}  // namespace internal

/// One completed span.
struct TraceEvent {
  std::string name;
  uint32_t tid = 0;       ///< stable per-thread id (internal::TraceThreadId)
  uint64_t start_ns = 0;  ///< ns since the process trace epoch (steady clock)
  uint64_t end_ns = 0;
  uint32_t depth = 0;     ///< nesting depth at entry (0 = top level)
};

/// Process-wide bounded span store; see the file comment.
class TraceBuffer {
 public:
  /// Default per-shard capacity: kShards shards × 128Ki events ≈ 1M spans.
  static constexpr size_t kDefaultShardCapacity = 128 * 1024;

  /// The process-wide buffer every TraceSpan records into.
  static TraceBuffer& Default();

  TraceBuffer() = default;
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Runtime recording gate; starts disabled.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Appends one completed span to the calling thread's shard. Dropped
  /// (and counted) when the buffer is disabled or the shard is full.
  void Record(TraceEvent event);

  /// All recorded events merged across shards, sorted by start time.
  std::vector<TraceEvent> Events() const;

  /// Events dropped because a shard was full or recording was disabled
  /// mid-span.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Clears every shard and the drop counter (test isolation).
  void Reset();

  /// Caps each shard at `capacity` events (tests shrink this to exercise
  /// the drop path). Existing events beyond the new cap are kept.
  void set_shard_capacity(size_t capacity) { shard_capacity_ = capacity; }

  /// Serializes all events as Chrome trace_event JSON ("X" complete
  /// events, ts/dur in microseconds) loadable in Perfetto.
  std::string ToChromeTraceJson() const;

  /// Writes ToChromeTraceJson() to `path`.
  util::Status WriteChromeTrace(const std::string& path) const;

  /// Nanoseconds since the process-wide trace epoch (steady clock; the
  /// epoch is anchored on first use).
  static uint64_t NowNs();

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };
  Shard shards_[internal::kShards];
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<size_t> shard_capacity_{kDefaultShardCapacity};
};

/// Whether the default buffer is currently recording (one relaxed load).
inline bool TraceEnabled() { return TraceBuffer::Default().enabled(); }

}  // namespace deepdirect::obs

#endif  // DEEPDIRECT_OBS_TRACE_BUFFER_H_
