// Out-of-core sharding bench: trains DeepDirect on the same Tencent
// network three ways — fully in RAM, sharded with an ample budget (the
// mmap-indirection overhead in isolation), and sharded with a budget of
// HALF the parameter footprint (the page CLOCK evicts all run long) — and
// gates the sharded path's contract:
//
//   shard_bit_identical      "bool"/higher  sharded nt=1 with ample budget
//                                           equals the in-RAM trainer
//                                           bit-for-bit (classifier
//                                           parameters and every d(u, v))
//   shard_budget_respected   "bool"/higher  under pressure, the resident
//                                           emb+conn high-water mark stayed
//                                           within the budget (the
//                                           machine-independent proxy for
//                                           "RSS under budget": the store's
//                                           own accounting of admitted
//                                           minus evicted bytes)
//   shard_evicts_under_pressure "bool"/higher the pressure run actually
//                                           evicted pages (else the
//                                           budget gate proved nothing)
//   shard_throughput_ge_0p6x "bool"/higher  sharded training throughput at
//                                           4 shards (ample budget) is at
//                                           least 0.6x the in-RAM trainer's
//
// The pressure run measures correctness, not speed. Serial global sampling
// against a working set twice the budget still faults pages back in on
// many steps: the E-step reads ahead and the CLOCK keeps the pages of the
// steps it has drawn (DESIGN.md §3i), which cut this run's evictions from
// 846k to 483k on a 4-vCPU host, but the noise rows are drawn over all
// arcs. Shard-affine Hogwild is the access pattern that avoids most of it
// (tests/sharded_store_test.cc pins that the thrashed result is still
// bit-identical). Timing rows (*_seconds) carry machine-dependent
// wall clock and are skipped by the cross-machine gate
// (scripts/bench_compare.py --skip-timing); the ratio and counters
// transfer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench_common.h"
#include "core/deepdirect.h"
#include "core/models.h"
#include "core/sharded_trainer.h"
#include "core/tie_index.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "train/sharded_store.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace deepdirect;

constexpr size_t kNumShards = 4;

}  // namespace

int main() {
  bench::BenchSession session("shards");
  std::printf("=== Out-of-core sharded training vs in-RAM ===\n\n");

  // The smoke default (DD_BENCH_SCALE=0.1) would leave the store-creation
  // constant dominating the tiny E-step, so the throughput ratio gets a
  // scale floor: large enough that training dominates, still seconds-fast.
  const double scale = std::max(bench::BenchScale(), 0.5);
  const auto net = data::MakeDataset(data::DatasetId::kTencent, scale);
  util::Rng rng(55);
  const auto split = graph::HideDirections(net, 0.2, rng);

  core::DeepDirectConfig config =
      core::MethodConfigs::FastDefaults().deepdirect;
  config.num_threads = 1;  // the bit-identity contract is serial-only
  config.d_step.num_threads = 1;

  const core::TieIndex idx(split.network);
  const uint64_t param_bytes = 2ull * idx.num_arcs() *
                               config.dimensions * sizeof(float);
  const auto mb = [](uint64_t bytes) {
    return static_cast<double>(bytes) / (1 << 20);
  };

  util::Timer timer;
  const auto in_ram = core::DeepDirectModel::Train(split.network, config);
  const double in_ram_seconds = timer.ElapsedSeconds();

  // --- Sharded, ample budget: isolates the mmap-indirection overhead. ---
  core::DeepDirectConfig ample_config = config;
  ample_config.sharding.num_shards = kNumShards;
  ample_config.sharding.dir = bench::ResultDir() + "/shard_store_ample";
  ample_config.sharding.ram_budget_mb =
      static_cast<size_t>(param_bytes / (1024 * 1024)) + 1;
  timer.Reset();
  auto ample =
      core::ShardedDeepDirectModel::Train(split.network, ample_config);
  const double sharded_seconds = timer.ElapsedSeconds();
  if (!ample.ok()) {
    std::fprintf(stderr, "error: %s\n", ample.status().ToString().c_str());
    return session.Finish(1);
  }

  // Bit-identity: classifier parameters and every per-arc directionality.
  bool bit_identical =
      in_ram->e_step_weights() == ample.value()->e_step_weights() &&
      in_ram->e_step_bias() == ample.value()->e_step_bias();
  for (size_t e = 0; bit_identical && e < idx.num_arcs(); ++e) {
    const auto [u, v] = idx.ArcAt(e);
    bit_identical =
        in_ram->Directionality(u, v) == ample.value()->Directionality(u, v);
  }
  const double throughput_ratio =
      sharded_seconds > 0.0 ? in_ram_seconds / sharded_seconds : 0.0;

  // --- Sharded, half-footprint budget: the CLOCK must evict and the
  // resident high-water mark must still respect the bound. Short epochs:
  // this run measures accounting, not speed. ---
  core::DeepDirectConfig pressure_config = config;
  pressure_config.epochs = std::min(pressure_config.epochs, 0.5);
  pressure_config.sharding.num_shards = kNumShards;
  pressure_config.sharding.dir =
      bench::ResultDir() + "/shard_store_pressure";
  pressure_config.sharding.ram_budget_mb =
      std::max<uint64_t>(1, param_bytes / 2 / (1024 * 1024));
  timer.Reset();
  auto pressure =
      core::ShardedDeepDirectModel::Train(split.network, pressure_config);
  const double pressure_seconds = timer.ElapsedSeconds();
  if (!pressure.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 pressure.status().ToString().c_str());
    return session.Finish(1);
  }
  const auto stats = pressure.value()->store().GetStats();
  const bool budget_respected =
      stats.max_resident_bytes <= stats.budget_bytes;
  const bool evicted = stats.evictions > 0;

  const auto ample_stats = ample.value()->store().GetStats();
  util::TablePrinter table(
      {"path", "seconds", "budget_mb", "max_resident_mb", "evictions"});
  table.AddRow({"in-RAM", util::TablePrinter::FormatDouble(in_ram_seconds, 3),
                "-", util::TablePrinter::FormatDouble(mb(param_bytes), 2),
                "-"});
  table.AddRow(
      {"sharded(4)", util::TablePrinter::FormatDouble(sharded_seconds, 3),
       util::TablePrinter::FormatDouble(mb(ample_stats.budget_bytes), 0),
       util::TablePrinter::FormatDouble(mb(ample_stats.max_resident_bytes),
                                        2),
       std::to_string(ample_stats.evictions)});
  table.AddRow(
      {"pressure(4)",
       util::TablePrinter::FormatDouble(pressure_seconds, 3),
       util::TablePrinter::FormatDouble(mb(stats.budget_bytes), 0),
       util::TablePrinter::FormatDouble(mb(stats.max_resident_bytes), 2),
       std::to_string(stats.evictions)});
  table.Print();

  auto csv = bench::OpenResultCsv("shards");
  csv.WriteRow({"arcs", "param_mb", "in_ram_s", "sharded_s", "ratio",
                "pressure_evictions", "bit_identical", "budget_respected"});
  csv.WriteRow({std::to_string(idx.num_arcs()),
                util::TablePrinter::FormatDouble(mb(param_bytes), 2),
                util::TablePrinter::FormatDouble(in_ram_seconds, 3),
                util::TablePrinter::FormatDouble(sharded_seconds, 3),
                util::TablePrinter::FormatDouble(throughput_ratio, 3),
                std::to_string(stats.evictions),
                bit_identical ? "1" : "0", budget_respected ? "1" : "0"});

  const std::map<std::string, std::string> labels = {
      {"shards", std::to_string(kNumShards)}};
  session.Add("in_ram_train_seconds", "seconds", "lower", in_ram_seconds,
              labels);
  session.Add("sharded_train_seconds", "seconds", "lower", sharded_seconds,
              labels);
  session.Add("pressure_train_seconds", "seconds", "lower",
              pressure_seconds, labels);
  session.Add("shard_throughput_ratio", "x", "none", throughput_ratio,
              labels);
  session.Add("shard_pressure_evictions", "count", "none",
              static_cast<double>(stats.evictions), labels);
  session.Add("shard_bit_identical", "bool", "higher",
              bit_identical ? 1.0 : 0.0, labels);
  session.Add("shard_budget_respected", "bool", "higher",
              budget_respected ? 1.0 : 0.0, labels);
  session.Add("shard_evicts_under_pressure", "bool", "higher",
              evicted ? 1.0 : 0.0, labels);
  session.Add("shard_throughput_ge_0p6x", "bool", "higher",
              throughput_ratio >= 0.6 ? 1.0 : 0.0, labels);

  std::printf(
      "\ngates: bit-identical %s, budget %s (%.2f of %.2f MB resident, "
      "%llu evictions), throughput %.2fx in-RAM (>=0.6 required)\n",
      bit_identical ? "ok" : "FAIL", budget_respected ? "ok" : "FAIL",
      mb(stats.max_resident_bytes), mb(stats.budget_bytes),
      static_cast<unsigned long long>(stats.evictions), throughput_ratio);
  const bool gates_ok = bit_identical && budget_respected && evicted &&
                        throughput_ratio >= 0.6;
  return session.Finish(gates_ok ? 0 : 1);
}
