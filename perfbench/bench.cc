#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/models.h"

namespace perfbench {

namespace obs = deepdirect::obs;
using namespace deepdirect;

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

OpTimes Summarize(const std::vector<double>& seconds) {
  return {seconds.size(),           Percentile(seconds, 0),
          Percentile(seconds, 25),  Median(seconds),
          Percentile(seconds, 75),  Percentile(seconds, 99),
          Percentile(seconds, 100)};
}

namespace {

/// Bucket of a latency of `ns` nanoseconds: exact below kSub, then kSub
/// buckets per power of two.
template <uint64_t kSub>
size_t BucketOf(uint64_t ns) {
  if (ns < kSub) return static_cast<size_t>(ns);
  const int shift = std::bit_width(ns) - std::bit_width(kSub);
  return static_cast<size_t>((shift + 1) * kSub + ((ns >> shift) - kSub));
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(BucketOf<kSubBuckets>(~uint64_t{0}) + 1, 0) {}

void LatencyHistogram::Add(double seconds) {
  const double ns = std::max(seconds, 0.0) * 1e9;
  ++counts_[BucketOf<kSubBuckets>(static_cast<uint64_t>(ns))];
  min_s_ = count_ == 0 ? seconds : std::min(min_s_, seconds);
  max_s_ = count_ == 0 ? seconds : std::max(max_s_, seconds);
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  min_s_ = count_ == 0 ? other.min_s_ : std::min(min_s_, other.min_s_);
  max_s_ = count_ == 0 ? other.max_s_ : std::max(max_s_, other.max_s_);
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // 0-based fractional rank; the bucket that holds it is taken to spread
  // its samples evenly over its width.
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t below = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (static_cast<double>(below + counts_[b]) > rank) {
      const uint64_t shift = b < kSubBuckets ? 0 : b / kSubBuckets - 1;
      const uint64_t lower =
          b < kSubBuckets ? b : (kSubBuckets + b % kSubBuckets) << shift;
      const double within = (rank - static_cast<double>(below)) /
                            static_cast<double>(counts_[b]);
      const double ns = static_cast<double>(lower) +
                        within * static_cast<double>(uint64_t{1} << shift);
      return std::clamp(ns * 1e-9, min_s_, max_s_);
    }
    below += counts_[b];
  }
  return max_s_;
}

OpTimes LatencyHistogram::Summary() const {
  return {count_,         min_s_,         Quantile(0.25), Quantile(0.5),
          Quantile(0.75), Quantile(0.99), max_s_};
}

void StartPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr,
                 "perfbench: cannot reset the peak-RSS mark; peak_rss_mb "
                 "includes set-up\n");
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kMiB;  // kB
    }
  }
  return 0.0;
}

void Result::Fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

bool Result::Check(const util::Status& status, const std::string& what) {
  if (status.ok()) return true;
  Fail(what + ": " + status.ToString());
  return false;
}

bool Result::TimeSetUp(const std::function<util::Status()>& set_up) {
  double total = 0.0;
  while (setup_s.size() < kSetupRepeats || total < kSetupSeconds) {
    const double start = Now();
    if (!Check(set_up(), "set-up")) return false;
    setup_s.push_back(Now() - start);
    total += setup_s.back();
  }
  return true;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

core::DeepDirectConfig TrainConfig() {
  core::MethodConfigs configs = core::MethodConfigs::FastDefaults();
  configs.SetNumThreads(kWorkers);
  return configs.deepdirect;
}

GraphStamp StampOf(const std::string& role, const core::TieIndex& index) {
  return {role, index.num_nodes(), index.num_arcs() / 2, index.num_arcs(),
          index.NumConnectedTiePairs()};
}

std::vector<serve::TiePair> HiddenPairs(
    const graph::HiddenDirectionSplit& split) {
  std::vector<serve::TiePair> pairs;
  pairs.reserve(2 * split.hidden_true_arcs.size());
  for (const graph::ArcId id : split.hidden_true_arcs) {
    const graph::Arc& arc = split.network.arc(id);
    pairs.push_back({arc.src, arc.dst});
    pairs.push_back({arc.dst, arc.src});
  }
  return pairs;
}

double PairAccuracy(const std::vector<double>& values) {
  double correct = 0.0;
  for (size_t i = 0; i + 1 < values.size(); i += 2) {
    if (values[i] > values[i + 1]) {
      correct += 1.0;
    } else if (values[i] == values[i + 1]) {
      correct += 0.5;
    }
  }
  const size_t pairs = values.size() / 2;
  return pairs == 0 ? 0.0 : correct / static_cast<double>(pairs);
}

void CheckServed(const core::DeepDirectModel& model,
                 const std::vector<serve::TiePair>& pairs,
                 const std::vector<double>& values, Result* result) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double expected = model.Directionality(pairs[i].u, pairs[i].v);
    if (std::bit_cast<uint64_t>(expected) !=
        std::bit_cast<uint64_t>(values[i])) {
      result->Fail("served d(" + std::to_string(pairs[i].u) + ", " +
                   std::to_string(pairs[i].v) + ") = " +
                   std::to_string(values[i]) + ", in-memory model says " +
                   std::to_string(expected));
      return;
    }
  }
}

bool ExportAndOpen(const core::DeepDirectModel& model, const std::string& path,
                   size_t cache_capacity,
                   std::optional<serve::ServableModel>* served, Bytes* bytes,
                   Result* result) {
  {
    obs::TraceSpan span("pb.export");
    if (!result->Check(model.ExportServable(path), "ExportServable")) {
      return false;
    }
  }
  std::error_code ec;
  const double size = static_cast<double>(std::filesystem::file_size(path, ec));
  {
    obs::TraceSpan span("pb.open");
    serve::ServeOptions options;
    options.cache_capacity = cache_capacity;
    auto opened = serve::ServableModel::Open(path, options);
    if (!result->Check(opened.status(), "ServableModel::Open")) return false;
    served->emplace(std::move(opened).value());
  }
  bytes->exported += size;
  bytes->opened += size;
  return true;
}

Ledger::Ledger(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  main_tid_ = obs::internal::TraceThreadId();
  obs::TraceBuffer& buffer = obs::TraceBuffer::Default();
  // Cost of recording one span, for obs.trace_overhead_frac.
  constexpr int kCalibrationSpans = 4000;
  buffer.Reset();
  buffer.set_enabled(true);
  const double start = Now();
  for (int i = 0; i < kCalibrationSpans; ++i) {
    obs::TraceSpan span("pb.calibrate");
  }
  span_cost_s_ = (Now() - start) / kCalibrationSpans;
  buffer.set_enabled(false);
  buffer.Reset();
}

Ledger::~Ledger() {
  if (enabled_) obs::TraceBuffer::Default().set_enabled(false);
}

void Ledger::Begin() {
  if (enabled_) {
    obs::TraceBuffer::Default().Reset();
    obs::TraceBuffer::Default().set_enabled(true);
  }
  begin_ = Now();
}

void Ledger::End() {
  end_ = Now();
  if (!enabled_) return;
  obs::TraceBuffer& buffer = obs::TraceBuffer::Default();
  buffer.set_enabled(false);
  events_ = buffer.Events();
  buffer.Reset();
}

double Ledger::Inclusive(std::initializer_list<const char*> names) const {
  uint64_t ns = 0;
  for (const obs::TraceEvent& event : events_) {
    for (const char* name : names) {
      if (event.name == name) ns += event.end_ns - event.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double Ledger::Unattributed() const {
  uint64_t covered = 0;
  for (const obs::TraceEvent& event : events_) {
    if (event.tid == main_tid_ && event.depth == 0) {
      covered += event.end_ns - event.start_ns;
    }
  }
  return Wall() - static_cast<double>(covered) * 1e-9;
}

double Ledger::OverheadFrac() const {
  if (Wall() <= 0.0) return 0.0;
  return static_cast<double>(events_.size()) * span_cost_s_ / Wall();
}

std::string Ledger::Table(double ops) const {
  struct Row {
    uint32_t depth = 0;
    uint64_t calls = 0;
    uint64_t inclusive_ns = 0;
    uint64_t self_ns = 0;
  };
  // Self time: a span's duration minus its direct children's, found with
  // one open-span stack per thread over start-ordered events.
  std::vector<obs::TraceEvent> events = events_;
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     return a.end_ns > b.end_ns;
                   });
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  std::vector<size_t> stack;
  std::vector<uint64_t> self(events.size(), 0);
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& event = events[i];
    while (!stack.empty() &&
           (events[stack.back()].tid != event.tid ||
            events[stack.back()].end_ns <= event.start_ns)) {
      stack.pop_back();
    }
    const uint64_t duration = event.end_ns - event.start_ns;
    self[i] = duration;
    if (!stack.empty()) {
      uint64_t& parent = self[stack.back()];
      parent -= std::min(parent, duration);
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& event = events[i];
    // Numbered spans ("... epoch 3", "... worker 1") share one row.
    std::string key = event.name;
    const size_t space = key.find_last_of(' ');
    if (space != std::string::npos &&
        key.find_first_not_of("0123456789", space + 1) == std::string::npos) {
      key.replace(space + 1, std::string::npos, "*");
    }
    if (event.tid != main_tid_) key += " (worker)";
    auto [it, inserted] = rows.try_emplace(key);
    if (inserted) {
      order.push_back(key);
      it->second.depth = event.depth;
    }
    ++it->second.calls;
    it->second.inclusive_ns += event.end_ns - event.start_ns;
    it->second.self_ns += self[i];
  }
  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-44s %10s %14s %14s\n", "span",
                "calls/op", "incl s/op", "self s/op");
  out << line;
  const double per = ops > 0.0 ? 1.0 / ops : 0.0;
  double top_level = 0.0;
  for (const std::string& name : order) {
    const Row& row = rows.at(name);
    const std::string label = std::string(2 * row.depth, ' ') + name;
    std::snprintf(line, sizeof(line), "%-44s %10.4g %14.6g %14.6g\n",
                  label.c_str(), static_cast<double>(row.calls) * per,
                  static_cast<double>(row.inclusive_ns) * 1e-9 * per,
                  static_cast<double>(row.self_ns) * 1e-9 * per);
    out << line;
    if (row.depth == 0 && name.find(" (worker)") == std::string::npos) {
      top_level += static_cast<double>(row.inclusive_ns) * 1e-9 * per;
    }
  }
  std::snprintf(line, sizeof(line),
                "%-44s %10s %14.6g\n%-44s %10s %14.6g\n", "unattributed", "",
                Unattributed() * per, "= traced wall", "",
                top_level + Unattributed() * per);
  out << line;
  return out.str();
}

void FillCommonLayers(const Ledger& ledger, double ops, Result* result) {
  if (!ledger.enabled() || ops <= 0.0) return;
  std::map<std::string, double>& layer = result->layer;
  const auto per_op = [&](std::initializer_list<const char*> names) {
    return ledger.Inclusive(names) / ops;
  };
  layer["graph.load_s"] = per_op({"pb.load"});
  layer["graph.split_s"] = per_op({"pb.split"});
  // One name per phase across the in-RAM, sharded and update trainers.
  layer["core.preprocess_s"] = per_op({"deepdirect.preprocess",
                                       "deepdirect.sharded.preprocess",
                                       "update.patterns"});
  layer["train.estep_s"] = per_op(
      {"deepdirect.estep", "deepdirect.sharded.estep", "update.estep"});
  layer["train.dstep_s"] = per_op(
      {"deepdirect.dstep", "deepdirect.sharded.dstep", "update.dstep"});
  layer["core.update_splice_s"] = per_op({"update.splice"});
  layer["core.update_patterns_s"] = per_op({"update.patterns"});
  layer["train.save_state_s"] = per_op({"pb.save_state"});
  layer["core.export_s"] = per_op({"pb.export"});
  layer["serve.open_s"] = per_op({"pb.open"});
  layer["train.store_create_s"] = per_op({"deepdirect.sharded.create_store"});
  layer["unattributed_s"] = ledger.Unattributed() / ops;
  layer["obs.traced_wall_s"] = ledger.Wall() / ops;
  layer["obs.trace_overhead_frac"] = ledger.OverheadFrac();
  result->ledger_text = ledger.Table(ops);
}

void FillTrainLayers(const Ledger& ledger, double steps, Result* result) {
  if (!ledger.enabled()) return;
  result->layer["train.estep_steps"] = steps;
  if (steps > 0.0) {
    result->layer["train.estep_ns_per_step"] =
        result->layer["train.estep_s"] / steps * 1e9;
  }
}

void FillContainerLayers(const Ledger& ledger, const Bytes& bytes,
                         Result* result) {
  if (!ledger.enabled()) return;
  const auto rate = [&](double byte_count, const char* span) {
    const double seconds = ledger.Inclusive({span});
    return seconds > 0.0 ? byte_count / kMiB / seconds : 0.0;
  };
  result->layer["train.save_state_mb_per_s"] =
      rate(bytes.saved, "pb.save_state");
  result->layer["core.export_mb_per_s"] = rate(bytes.exported, "pb.export");
  result->layer["serve.open_mb_per_s"] = rate(bytes.opened, "pb.open");
}

}  // namespace perfbench
