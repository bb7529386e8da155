// perfbench: the repository benchmark. One invocation runs one workload
// (discover, serve, update, train_ooc) and prints a human-readable report,
// an environment stamp, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, measured with every
// trace gate off; with --trace 1 they are the per-layer set, taken from
// obs::TraceBuffer spans. The metrics registry is never enabled.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--source-id ID]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"

namespace {

using perfbench::Metric;
using perfbench::Result;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, one meaning per workload (see README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"accuracy", "frac"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics; a layer the workload does not exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"graph.load_s", "s/op"},
    {"graph.split_s", "s/op"},
    {"core.preprocess_s", "s/op"},
    {"train.estep_s", "s/op"},
    {"train.estep_steps", "count/op"},
    {"train.estep_ns_per_step", "ns"},
    {"train.dstep_s", "s/op"},
    {"core.update_splice_s", "s/op"},
    {"core.update_patterns_s", "s/op"},
    {"core.update_affected_arcs", "count/op"},
    {"train.save_state_s", "s/op"},
    {"train.save_state_mb_per_s", "MB/s"},
    {"core.export_s", "s/op"},
    {"core.export_mb_per_s", "MB/s"},
    {"serve.open_s", "s/op"},
    {"serve.open_mb_per_s", "MB/s"},
    {"serve.score_ns_per_pair", "ns"},
    {"serve.query_batch_us", "us"},
    {"serve.cache_hit_rate", "frac"},
    {"serve.cache_evictions", "count/op"},
    {"serve.na_frac", "frac"},
    {"train.store_create_s", "s/op"},
    {"train.store_admissions", "count/op"},
    {"train.store_evictions", "count/op"},
    {"train.store_admissions_per_kstep", "count"},
    {"train.store_max_resident_mb", "MB"},
    {"unattributed_s", "s/op"},
    {"obs.traced_wall_s", "s/op"},
    {"obs.trace_overhead_frac", "frac"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload discover|serve|update|train_ooc "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--source-id ID]\n");
  return 2;
}

const char* ModeName(deepdirect::kernels::Mode mode) {
  switch (mode) {
    case deepdirect::kernels::Mode::kAuto:
      return "auto";
    case deepdirect::kernels::Mode::kScalar:
      return "scalar";
    case deepdirect::kernels::Mode::kSimd:
      return "simd";
  }
  return "unknown";
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string Stamp(const perfbench::Options& options, const Result& result) {
  namespace kernels = deepdirect::kernels;
  std::string out = "{\"stamp\": {";
  out += "\"source\": " + JsonString(options.source_id);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"simd_isa\": " + JsonString(kernels::SimdIsaName());
  out += ", \"kernel_mode\": " + JsonString(ModeName(kernels::CurrentMode()));
  out += ", \"kernel_path\": " + JsonString(kernels::ActivePathName());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"workers\": " + std::to_string(result.workers);
  out += ", \"clients\": " + std::to_string(result.clients);
  out += ", \"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + JsonNumber(options.seconds);
  out += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  out += ", \"graphs\": [";
  for (size_t i = 0; i < result.graphs.size(); ++i) {
    const perfbench::GraphStamp& g = result.graphs[i];
    out += (i ? ", " : "") + std::string("{\"role\": ") + JsonString(g.role) +
           ", \"nodes\": " + std::to_string(g.nodes) +
           ", \"ties\": " + std::to_string(g.ties) +
           ", \"closure_arcs\": " + std::to_string(g.arcs) +
           ", \"connected_tie_pairs\": " + std::to_string(g.connected_pairs) +
           "}";
  }
  return out + "]}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || !(options.seconds > 0.0)) return Usage();
  Result (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "discover") run = perfbench::RunDiscover;
  if (options.workload == "serve") run = perfbench::RunServe;
  if (options.workload == "update") run = perfbench::RunUpdate;
  if (options.workload == "train_ooc") run = perfbench::RunTrainOoc;
  if (run == nullptr) return Usage();
  // The registry gate turns on per-sample loss tracking in the E-step; a
  // run with it on would measure a different program.
  if (deepdirect::obs::Enabled()) {
    std::fprintf(stderr, "error: the metrics registry must stay disabled\n");
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  Result result = run(options);
  if (deepdirect::obs::Enabled()) result.Fail("metrics registry was enabled");

  std::vector<Metric> metrics;
  if (!options.trace) {
    const double values[] = {
        perfbench::Median(result.setup_s),
        result.op_times.p50 * 1e3,
        result.accuracy,
        result.peak_rss_mb,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.layer.find(spec.name);
      const double value = it == result.layer.end() ? 0.0 : it->second;
      metrics.push_back({spec.name, value, spec.unit});
    }
  }
  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail(metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  const bool correct = result.failed == 0 && result.attempted > 0;

  std::printf("perfbench %s seed=%llu trace=%d: %llu %s(s) attempted, "
              "%llu failed\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0,
              static_cast<unsigned long long>(result.attempted),
              result.op_name.c_str(),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  if (result.op_times.count > 0) {
    const perfbench::OpTimes& ops = result.op_times;
    std::printf("  %s time (ms): n=%llu min %.4g p25 %.4g p50 %.4g p75 %.4g "
                "max %.4g\n",
                result.op_name.c_str(),
                static_cast<unsigned long long>(ops.count), ops.min * 1e3,
                ops.p25 * 1e3, ops.p50 * 1e3, ops.p75 * 1e3, ops.max * 1e3);
  }
  const auto print = [](const Metric& metric) {
    std::printf("  %-34s %18.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  };
  print({"failed_frac",
         result.attempted > 0 ? static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                              : 1.0,
         "frac"});
  if (!options.trace) {
    for (const Metric& metric : result.detail) print(metric);
  }
  for (const Metric& metric : metrics) print(metric);
  if (!result.ledger_text.empty()) {
    std::printf("ledger (per %s):\n%s", result.op_name.c_str(),
                result.ledger_text.c_str());
  }
  std::printf("%s\n", Stamp(options, result).c_str());

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  std::filesystem::remove_all(options.work_dir, ec);
  return correct ? 0 : 1;
}
