#include "bench_report.h"

#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/metrics.h"

// Build facts baked in by bench/CMakeLists.txt; defaults keep the file
// compilable standalone (tests, tooling).
#ifndef DEEPDIRECT_BENCH_GIT_SHA
#define DEEPDIRECT_BENCH_GIT_SHA "unknown"
#endif
#ifndef DEEPDIRECT_BENCH_BUILD_TYPE
#define DEEPDIRECT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DEEPDIRECT_BENCH_COMPILER
#define DEEPDIRECT_BENCH_COMPILER "unknown"
#endif

namespace deepdirect::bench {

using obs::internal::JsonNumber;
using obs::internal::JsonString;

BenchEnvironment BenchEnvironment::Collect() {
  BenchEnvironment env;
  env.git_sha = DEEPDIRECT_BENCH_GIT_SHA;
  env.build_type = DEEPDIRECT_BENCH_BUILD_TYPE;
  env.compiler = DEEPDIRECT_BENCH_COMPILER;
  env.hardware_threads = std::thread::hardware_concurrency();
  if (const char* scale = std::getenv("DD_BENCH_SCALE")) {
    const double parsed = std::atof(scale);
    if (parsed > 0.0) env.bench_scale = parsed;
  }
  if (const char* fast = std::getenv("DD_BENCH_FAST")) {
    env.bench_fast = std::string(fast) == "1";
  }
  if (const char* threads = std::getenv("DD_BENCH_THREADS")) {
    env.bench_threads =
        static_cast<size_t>(std::strtoull(threads, nullptr, 10));
  }
  return env;
}

std::string BenchReport::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"deepdirect-bench-report\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"bench\": " + JsonString(bench_) + ",\n";
  out += "  \"environment\": {\n";
  out += "    \"git_sha\": " + JsonString(env_.git_sha) + ",\n";
  out += "    \"build_type\": " + JsonString(env_.build_type) + ",\n";
  out += "    \"compiler\": " + JsonString(env_.compiler) + ",\n";
  out += "    \"hardware_threads\": " +
         std::to_string(env_.hardware_threads) + ",\n";
  out += "    \"bench_scale\": " + JsonNumber(env_.bench_scale) + ",\n";
  out += std::string("    \"bench_fast\": ") +
         (env_.bench_fast ? "true" : "false") + ",\n";
  out += "    \"bench_threads\": " + std::to_string(env_.bench_threads) +
         "\n  },\n";
  out += "  \"measurements\": [";
  bool first = true;
  for (const Measurement& m : measurements_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + JsonString(m.name) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"better\": " + JsonString(m.better) +
           ", \"value\": " + JsonNumber(m.value) + ", \"labels\": {";
    bool first_label = true;
    for (const auto& [key, value] : m.labels) {
      if (!first_label) out += ", ";
      first_label = false;
      out += JsonString(key) + ": " + JsonString(value);
    }
    out += "}}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

util::Status BenchReport::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return util::Status::IOError("cannot open for writing: " + path);
  }
  out << ToJson();
  out.flush();
  if (!out.good()) return util::Status::IOError("write failed: " + path);
  return util::Status::OK();
}

}  // namespace deepdirect::bench
