// Time-series metric snapshots: loss/throughput-vs-wall-clock curves.
//
// The registry's exit dump (--metrics-out) answers "what happened overall";
// a TimelineWriter answers "when": a background thread appends one compact
// JSON line per tick to a JSONL file —
//   {"wall_seconds": W, "counters": {...}, "gauges": {...},
//    "series_len": {...}, "series_last": {...}}
// — so post-hoc tooling can plot any counter, gauge, or loss series
// against wall-clock time without the trainers cooperating.
//
// The writer is a pure reader of the default registry (Snapshot() under
// the registry mutex, relaxed metric loads): it draws from no Rng and
// never writes a metric, so training output is unaffected by sampling.
// One final tick is always appended on Stop(), so even runs shorter than
// the interval yield a curve point.

#ifndef DEEPDIRECT_OBS_TIMELINE_H_
#define DEEPDIRECT_OBS_TIMELINE_H_

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace deepdirect::obs {

/// Background JSONL snapshot appender; see the file comment.
class TimelineWriter {
 public:
  /// Configures a writer for `path` ticking every `interval_seconds`
  /// (clamped up to 1ms). Nothing runs until Start().
  TimelineWriter(std::string path, double interval_seconds);

  /// Stops and joins (appending the final tick) if still running.
  ~TimelineWriter();

  /// Opens the file (truncating) and spawns the sampling thread. Returns
  /// an error without spawning when the file cannot be opened.
  util::Status Start();

  /// Appends one final tick, stops the thread, and closes the file.
  /// Idempotent.
  void Stop();

  /// Ticks appended so far (including the final Stop() tick).
  uint64_t ticks() const;

  /// One snapshot line (no trailing newline). Exposed for tests and for
  /// callers that embed timeline lines elsewhere.
  static std::string SnapshotLine(double wall_seconds,
                                  const MetricsSnapshot& snapshot);

  TimelineWriter(const TimelineWriter&) = delete;
  TimelineWriter& operator=(const TimelineWriter&) = delete;

 private:
  void Run();
  void Tick();

  const std::string path_;
  const double interval_seconds_;
  std::ofstream out_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool running_ = false;
  uint64_t ticks_ = 0;
  util::Timer timer_;
};

}  // namespace deepdirect::obs

#endif  // DEEPDIRECT_OBS_TIMELINE_H_
