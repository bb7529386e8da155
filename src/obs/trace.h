// RAII span tracing on top of the metrics registry and the trace buffer.
//
// Two scope types cover the tracing this repo does:
//   * TraceSpan  — marks one named span of work on the current thread and,
//     when the trace buffer is recording, appends a {name, tid, t_start,
//     t_end, depth} event at scope exit (trace_buffer.h). Timeline only;
//     no aggregate metrics.
//   * PhaseScope — a TraceSpan that *also* aggregates: on destruction it
//     records the span's wall time into the histogram
//     "phase.<name>.seconds" and bumps the counter "phase.<name>.calls" in
//     the default registry.
// Scopes are intended for coarse phases (graph loading, E-Step, epochs,
// checkpoint writes) — construction may do registry lookups under a mutex
// — never for per-step instrumentation.
//
// The two gates are independent: the registry gate (Registry::set_enabled)
// controls the aggregate metrics, the buffer gate
// (TraceBuffer::set_enabled) controls timeline events, and either can be
// on without the other. When both are disabled, constructing a scope does
// nothing measurable. A gate that turns off mid-span suppresses that span's
// teardown recording — a span must never write into a registry or buffer
// the owner has switched off.

#ifndef DEEPDIRECT_OBS_TRACE_H_
#define DEEPDIRECT_OBS_TRACE_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "util/timer.h"

namespace deepdirect::obs {

/// RAII timeline span; records one TraceEvent into the default buffer at
/// scope exit when tracing is enabled.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name) {
    if (!TraceEnabled()) return;
    active_ = true;
    name_ = std::move(name);
    depth_ = internal::EnterSpanDepth();
    start_ns_ = TraceBuffer::NowNs();
  }

  ~TraceSpan() {
    if (!active_) return;
    internal::ExitSpanDepth();
    // Record() re-checks the gate: a span that outlives a set_enabled(false)
    // is dropped (and counted), never recorded late.
    TraceBuffer::Default().Record({std::move(name_),
                                   internal::TraceThreadId(), start_ns_,
                                   TraceBuffer::NowNs(), depth_});
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
  std::string name_;
  uint32_t depth_ = 0;
  uint64_t start_ns_ = 0;
};

/// RAII span that times `phase.<name>` into the default registry and
/// mirrors the span into the trace buffer.
class PhaseScope {
 public:
  explicit PhaseScope(const std::string& name) : span_(name) {
    if (!Enabled()) return;
    Registry& registry = Registry::Default();
    seconds_ = registry.GetHistogram("phase." + name + ".seconds");
    registry.GetCounter("phase." + name + ".calls")->Add(1);
    timer_.Reset();
  }

  ~PhaseScope() {
    // Re-check the gate: when recording was switched off between
    // construction and teardown the registry must stay untouched.
    if (seconds_ != nullptr && Enabled()) {
      seconds_->Observe(timer_.ElapsedSeconds());
    }
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  TraceSpan span_;
  Histogram* seconds_ = nullptr;
  util::Timer timer_;
};

}  // namespace deepdirect::obs

#endif  // DEEPDIRECT_OBS_TRACE_H_
