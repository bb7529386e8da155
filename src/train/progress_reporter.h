// Windowed training-progress reporting shared by the SGD trainers.
//
// Accumulates per-step losses into a window and invokes the trainer's
// progress callback every `report_every` steps (and once more at the end of
// the budget), reproducing the historical DeepDirect reporting cadence
// exactly in the single-worker path. Thread-safe: Hogwild workers record
// batches under a mutex; the callback is never invoked concurrently.
//
// When constructed with a metrics prefix and the obs registry is enabled,
// every closed window additionally appends its mean loss to the series
// "<prefix>.loss" — the loss curve exported by --metrics-out snapshots.

#ifndef DEEPDIRECT_TRAIN_PROGRESS_REPORTER_H_
#define DEEPDIRECT_TRAIN_PROGRESS_REPORTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/timer.h"

namespace deepdirect::train {

/// (steps processed so far, total step budget, mean loss over the window).
using ProgressCallback =
    std::function<void(uint64_t step, uint64_t total, double mean_loss)>;

/// Thread-safe windowed loss/throughput tracker.
class ProgressReporter {
 public:
  /// `total` is the step budget and `step_offset` the index of the first
  /// step this reporter will see (non-zero when a run resumes from a
  /// checkpoint). A non-empty
  /// `metrics_prefix` mirrors window losses into the obs registry when it
  /// is enabled.
  ProgressReporter(ProgressCallback callback, uint64_t report_every,
                   uint64_t total, uint64_t step_offset = 0,
                   std::string metrics_prefix = "");

  /// Records `steps` completed steps whose losses sum to `loss_sum`.
  void Record(uint64_t steps, double loss_sum);

  /// Steps recorded so far.
  uint64_t processed() const {
    return processed_.load(std::memory_order_relaxed);
  }

  /// Observed throughput since construction.
  double StepsPerSec() const;

 private:
  ProgressCallback callback_;
  const std::string loss_series_;  ///< empty = no metrics mirroring
  const uint64_t report_every_;
  const uint64_t total_;
  const uint64_t step_offset_;
  std::atomic<uint64_t> processed_{0};
  std::mutex mu_;
  uint64_t window_steps_ = 0;  // guarded by mu_
  double window_loss_ = 0.0;   // guarded by mu_
  util::Timer timer_;
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_PROGRESS_REPORTER_H_
