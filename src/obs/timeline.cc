#include "obs/timeline.h"

#include <algorithm>
#include <chrono>

namespace deepdirect::obs {

TimelineWriter::TimelineWriter(std::string path, double interval_seconds)
    : path_(std::move(path)),
      interval_seconds_(std::max(interval_seconds, 1e-3)) {}

TimelineWriter::~TimelineWriter() { Stop(); }

util::Status TimelineWriter::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return util::Status::OK();
  out_.open(path_, std::ios::trunc);
  if (!out_.good()) {
    return util::Status::IOError("cannot open for writing: " + path_);
  }
  timer_.Reset();
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { Run(); });
  return util::Status::OK();
}

void TimelineWriter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  Tick();  // final point: short runs still get at least one sample
  out_.close();
  running_ = false;
}

uint64_t TimelineWriter::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

void TimelineWriter::Run() {
  const auto interval = std::chrono::duration<double>(interval_seconds_);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    Tick();
  }
}

void TimelineWriter::Tick() {
  // Callers hold mu_. Snapshot() takes only the registry mutex, so there is
  // no lock-order cycle: nothing acquires mu_ while holding registry locks.
  out_ << SnapshotLine(timer_.ElapsedSeconds(),
                       Registry::Default().Snapshot())
       << '\n';
  out_.flush();
  ++ticks_;
}

std::string TimelineWriter::SnapshotLine(double wall_seconds,
                                         const MetricsSnapshot& snapshot) {
  using internal::JsonNumber;
  using internal::JsonString;
  std::string out =
      "{\"wall_seconds\": " + JsonNumber(wall_seconds) + ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  // Series can grow unbounded; per tick only the length and latest value
  // are needed to reconstruct a curve from consecutive lines.
  out += "}, \"series_len\": {";
  first = true;
  for (const auto& [name, values] : snapshot.series) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + std::to_string(values.size());
  }
  out += "}, \"series_last\": {";
  first = true;
  for (const auto& [name, values] : snapshot.series) {
    if (values.empty()) continue;
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": " + JsonNumber(values.back());
  }
  out += "}}";
  return out;
}

}  // namespace deepdirect::obs
