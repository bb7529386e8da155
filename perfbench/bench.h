// Shared pieces of the perfbench program: run options, the record each
// workload fills, order statistics, peak-RSS probes, and the trace ledger
// that turns obs::TraceBuffer spans into per-layer metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/deepdirect.h"
#include "core/tie_index.h"
#include "graph/algorithms.h"
#include "obs/trace.h"
#include "serve/servable_model.h"
#include "util/status.h"

namespace perfbench {

/// Hogwild workers for the E- and D-step (what `tdl_cli discover
/// --threads 2` trains with) and closed-loop serving clients. Half of a
/// 4-vCPU host stays free.
inline constexpr size_t kWorkers = 2;
inline constexpr size_t kClients = 2;
/// setup_s is the median of complete set-ups, repeated at least
/// kSetupRepeats times and for at least kSetupSeconds, so a set-up of a few
/// milliseconds still yields a steady median.
inline constexpr size_t kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 2.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< working directory for generated inputs
  std::string source_id;  ///< git SHA or source-tree digest
};

/// A named value with its unit, as reported.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One graph the workload trained or served, for the environment stamp.
struct GraphStamp {
  std::string role;
  size_t nodes = 0;
  size_t ties = 0;
  size_t arcs = 0;
  uint64_t connected_pairs = 0;
};

/// Monotonic seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 100].
double Percentile(std::vector<double> values, double q);

/// Order statistics of a workload's timed operations, in seconds.
struct OpTimes {
  uint64_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
/// Exact order statistics of `seconds`.
OpTimes Summarize(const std::vector<double>& seconds);

/// Latencies recorded in fixed memory, so that recording them does not
/// grow the process while its peak RSS is measured. Buckets are
/// log-linear in nanoseconds, kSubBuckets per power of two, so a bucket
/// is at most 1/kSubBuckets of its values wide. Quantiles are interpolated
/// linearly inside their bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double seconds);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  OpTimes Summary() const;

 private:
  static constexpr uint64_t kSubBuckets = 128;
  /// Seconds at quantile q in [0, 1].
  double Quantile(double q) const;

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double min_s_ = 0.0;
  double max_s_ = 0.0;
};

/// Resets the kernel's peak-RSS mark to the current RSS (Linux
/// /proc/self/clear_refs) before a timed section; warns on stderr when the
/// kernel refuses, in which case PeakRssMb covers set-up too.
void StartPeakRss();
/// Peak RSS in MiB since StartPeakRss (VmHWM).
double PeakRssMb();

/// What one workload run measured and checked.
struct Result {
  uint64_t attempted = 0;  ///< operations issued (pipelines, requests, ...)
  uint64_t failed = 0;     ///< of those, non-OK status or wrong answer
  std::vector<std::string> failures;  ///< the first few failure messages

  std::vector<double> setup_s;  ///< one entry per complete set-up
  OpTimes op_times;             ///< the timed operations
  double accuracy = 0.0;
  double peak_rss_mb = 0.0;
  std::string op_name;          ///< what one operation is, for the report
  size_t workers = kWorkers;    ///< training workers, for the stamp
  size_t clients = 0;           ///< serving clients, for the stamp

  /// The workload's own metrics under their workload names (serve_p99_us,
  /// discover_s, ...), printed in the human-readable report.
  std::vector<Metric> detail;
  /// Per-layer metrics; names absent here report 0 (layer not exercised).
  std::map<std::string, double> layer;
  std::vector<GraphStamp> graphs;
  /// Human-readable ledger table (traced runs only).
  std::string ledger_text;

  /// Counts one failed operation (`attempted` is counted by the caller).
  void Fail(const std::string& message);
  /// Counts a failure when `status` is not OK.
  bool Check(const deepdirect::util::Status& status, const std::string& what);
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  /// Times `set_up` per the kSetupRepeats / kSetupSeconds rule into
  /// setup_s; false (after counting the failure) when a set-up fails.
  bool TimeSetUp(const std::function<deepdirect::util::Status()>& set_up);
};

/// Collects obs::TraceBuffer spans over a traced timed section and turns
/// them into layer totals. The benchmark records a `pb.*` span around each
/// public call it makes; the program's own spans (deepdirect.*, update.*,
/// graph.load, checkpoint.write) nest inside them.
class Ledger {
 public:
  /// Enables the trace buffer (never the metrics registry) when `enabled`,
  /// after timing the cost of recording one span.
  explicit Ledger(bool enabled);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool enabled() const { return enabled_; }
  /// Marks the start and end of the traced timed section.
  void Begin();
  void End();

  /// Inclusive seconds summed over every span with one of `names`.
  double Inclusive(std::initializer_list<const char*> names) const;
  /// Seconds of the timed section not covered by a top-level span of the
  /// calling (main) thread.
  double Unattributed() const;
  double Wall() const { return end_ - begin_; }
  /// Estimated share of the traced wall spent recording spans.
  double OverheadFrac() const;
  /// Table of every span name: calls, inclusive and self seconds.
  std::string Table(double ops) const;

 private:
  bool enabled_ = false;
  uint32_t main_tid_ = 0;
  double begin_ = 0.0;
  double end_ = 0.0;
  double span_cost_s_ = 0.0;
  std::vector<deepdirect::obs::TraceEvent> events_;
};

/// Bytes written and read through the model and state containers.
struct Bytes {
  double saved = 0.0;     ///< E-step state checkpoints (DDCK)
  double exported = 0.0;  ///< DDS1 servable models written
  double opened = 0.0;    ///< DDS1 servable models opened
};

/// Derives an independent 64-bit stream seed from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);
/// The DeepDirect settings `tdl_cli discover --threads 2` trains with.
deepdirect::core::DeepDirectConfig TrainConfig();
GraphStamp StampOf(const std::string& role,
                   const deepdirect::core::TieIndex& index);
/// Every hidden tie in both directions: (true src, true dst) then the
/// reverse, so PairAccuracy can score the served values.
std::vector<deepdirect::serve::TiePair> HiddenPairs(
    const deepdirect::graph::HiddenDirectionSplit& split);
/// Share of consecutive (forward, backward) pairs with forward > backward,
/// ties counting half: DirectionDiscoveryAccuracy's rule on served values.
double PairAccuracy(const std::vector<double>& values);
/// Counts a failure unless every served value equals the in-memory
/// model's Directionality bit for bit.
void CheckServed(const deepdirect::core::DeepDirectModel& model,
                 const std::vector<deepdirect::serve::TiePair>& pairs,
                 const std::vector<double>& values, Result* result);
/// ExportServable to `path` then ServableModel::Open it, each under its own
/// span; false (after counting the failure) when either fails.
bool ExportAndOpen(const deepdirect::core::DeepDirectModel& model,
                   const std::string& path, size_t cache_capacity,
                   std::optional<deepdirect::serve::ServableModel>* served,
                   Bytes* bytes, Result* result);

/// Fills the layer metrics every traced workload shares from `ledger`,
/// scaled per operation: the graph/core/train phases mapped onto one set
/// of names across the in-RAM, sharded and update trainers, plus
/// unattributed_s, obs.traced_wall_s and obs.trace_overhead_frac.
void FillCommonLayers(const Ledger& ledger, double ops, Result* result);
/// train.estep_steps and train.estep_ns_per_step for `steps` per op.
void FillTrainLayers(const Ledger& ledger, double steps, Result* result);
/// MB/s of the state save, DDS1 export and DDS1 open spans.
void FillContainerLayers(const Ledger& ledger, const Bytes& bytes,
                         Result* result);

Result RunDiscover(const Options& options);
Result RunServe(const Options& options);
Result RunUpdate(const Options& options);
Result RunTrainOoc(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
