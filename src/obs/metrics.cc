#include "obs/metrics.h"

#include <cstdio>
#include <fstream>

#include "util/csv_writer.h"

namespace deepdirect::obs {

namespace internal {

size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

}  // namespace internal

namespace {

double FiniteOrZero(double value) {
  return std::isfinite(value) ? value : 0.0;
}

}  // namespace

namespace internal {

// Doubles print round-trippable; JSON forbids inf/nan, so clamp.
std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", FiniteOrZero(value));
  return buffer;
}

// Metric names are ASCII identifiers; escape the JSON specials anyway so
// the writer never emits malformed output.
std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace internal

namespace {
using internal::JsonNumber;
using internal::JsonString;
}  // namespace

double Histogram::BucketUpperBound(size_t index) {
  return kMinBucket * std::exp2(static_cast<double>(index));
}

HistogramStats Histogram::Stats() const {
  uint64_t buckets[kBuckets] = {};
  HistogramStats stats;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const Shard& s : shards_) {
    stats.count += s.count.load(std::memory_order_relaxed);
    stats.sum += s.sum.load(std::memory_order_relaxed);
    min = std::min(min, s.min.load(std::memory_order_relaxed));
    max = std::max(max, s.max.load(std::memory_order_relaxed));
    for (size_t b = 0; b < kBuckets; ++b) {
      buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (stats.count == 0) return stats;
  stats.min = min;
  stats.max = max;
  stats.mean = stats.sum / static_cast<double>(stats.count);

  // Quantiles from bucket upper bounds, clamped into [min, max].
  const auto quantile = [&](double q) {
    const uint64_t target = static_cast<uint64_t>(
        q * static_cast<double>(stats.count - 1)) + 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen >= target) {
        return std::min(std::max(BucketUpperBound(b), stats.min), stats.max);
      }
    }
    return stats.max;
  };
  stats.p50 = quantile(0.50);
  stats.p95 = quantile(0.95);
  stats.p99 = quantile(0.99);
  return stats;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    " + JsonString(name) + ": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    " + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    " + JsonString(name) + ": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + JsonNumber(h.sum) +
           ", \"mean\": " + JsonNumber(h.mean) +
           ", \"min\": " + JsonNumber(h.min) +
           ", \"max\": " + JsonNumber(h.max) +
           ", \"p50\": " + JsonNumber(h.p50) +
           ", \"p95\": " + JsonNumber(h.p95) +
           ", \"p99\": " + JsonNumber(h.p99) + "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"series\": {";
  first = true;
  for (const auto& [name, values] : series) {
    out += first ? "\n" : ",\n";
    out += "    " + JsonString(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonNumber(values[i]);
    }
    out += "]";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

util::Status MetricsSnapshot::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return util::Status::IOError("cannot open for writing: " + path);
  }
  out << ToJson();
  out.flush();
  if (!out.good()) return util::Status::IOError("write failed: " + path);
  return util::Status::OK();
}

util::Status MetricsSnapshot::WriteCsv(const std::string& path) const {
  util::CsvWriter csv(path);
  if (!csv.ok()) {
    return util::Status::IOError("cannot open for writing: " + path);
  }
  csv.WriteRow({"kind", "name", "field", "value"});
  const auto number = [](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", FiniteOrZero(v));
    return std::string(buffer);
  };
  for (const auto& [name, value] : counters) {
    csv.WriteRow({"counter", name, "value", std::to_string(value)});
  }
  for (const auto& [name, value] : gauges) {
    csv.WriteRow({"gauge", name, "value", number(value)});
  }
  for (const auto& [name, h] : histograms) {
    csv.WriteRow({"histogram", name, "count", std::to_string(h.count)});
    csv.WriteRow({"histogram", name, "sum", number(h.sum)});
    csv.WriteRow({"histogram", name, "mean", number(h.mean)});
    csv.WriteRow({"histogram", name, "min", number(h.min)});
    csv.WriteRow({"histogram", name, "max", number(h.max)});
    csv.WriteRow({"histogram", name, "p50", number(h.p50)});
    csv.WriteRow({"histogram", name, "p95", number(h.p95)});
    csv.WriteRow({"histogram", name, "p99", number(h.p99)});
  }
  for (const auto& [name, values] : series) {
    for (size_t i = 0; i < values.size(); ++i) {
      csv.WriteRow({"series", name, std::to_string(i), number(values[i])});
    }
  }
  csv.Close();
  return util::Status::OK();
}

Registry& Registry::Default() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;  // pointers cached by call sites must outlive exit paths
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void Registry::Append(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[name].push_back(value);
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Stats();
  }
  snapshot.series = series_;
  return snapshot;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  series_.clear();
}

}  // namespace deepdirect::obs
