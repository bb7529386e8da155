#include "obs/trace_buffer.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace deepdirect::obs {

namespace internal {

uint32_t TraceThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {
thread_local uint32_t span_depth = 0;
}  // namespace

uint32_t EnterSpanDepth() { return span_depth++; }

void ExitSpanDepth() {
  if (span_depth > 0) --span_depth;
}

}  // namespace internal

uint64_t TraceBuffer::NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

TraceBuffer& TraceBuffer::Default() {
  static TraceBuffer* buffer = new TraceBuffer();  // never destroyed, like
  return *buffer;  // Registry::Default(): spans may finish during exit
}

void TraceBuffer::Record(TraceEvent event) {
  if (!enabled()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& shard = shards_[internal::ThreadShard()];
  const size_t capacity = shard_capacity_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.events.size() >= capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  std::vector<TraceEvent> merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.insert(merged.end(), shard.events.begin(), shard.events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return merged;
}

void TraceBuffer::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

std::string TraceBuffer::ToChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  // "X" (complete) events with microsecond ts/dur — the minimal shape both
  // chrome://tracing and Perfetto accept without a metadata preamble.
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    const double ts_us = static_cast<double>(event.start_ns) / 1e3;
    const double dur_us =
        static_cast<double>(event.end_ns - event.start_ns) / 1e3;
    out += "  {\"name\": " + internal::JsonString(event.name) +
           ", \"cat\": \"deepdirect\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(event.tid) +
           ", \"ts\": " + internal::JsonNumber(ts_us) +
           ", \"dur\": " + internal::JsonNumber(dur_us) +
           ", \"args\": {\"depth\": " + std::to_string(event.depth) + "}}";
  }
  out += first ? "]" : "\n]";
  out += ", \"otherData\": {\"dropped_events\": " +
         std::to_string(dropped()) + "}}\n";
  return out;
}

util::Status TraceBuffer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return util::Status::IOError("cannot open for writing: " + path);
  }
  out << ToChromeTraceJson();
  out.flush();
  if (!out.good()) return util::Status::IOError("write failed: " + path);
  return util::Status::OK();
}

}  // namespace deepdirect::obs
