// Tests for the observability layer (src/obs/): metric primitives and their
// cross-thread merge, the registry, phase tracing, snapshot export — and two
// system-level guarantees: a tdl_cli-equivalent pipeline records telemetry
// for all four SgdDriver trainers, and enabling telemetry never perturbs the
// deterministic serial training path.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/models.h"
#include "data/generators.h"
#include "embedding/line.h"
#include "graph/algorithms.h"
#include "graph/graph_io.h"
#include "json_lint.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/random.h"

namespace deepdirect {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Resets + enables the default registry for a test and restores the
// disabled default afterwards, so tests sharing one process stay isolated.
struct ScopedDefaultRegistry {
  ScopedDefaultRegistry() {
    obs::Registry::Default().Reset();
    obs::Registry::Default().set_enabled(true);
  }
  ~ScopedDefaultRegistry() {
    obs::Registry::Default().set_enabled(false);
    obs::Registry::Default().Reset();
  }
};

// A small synthetic network shared by the system-level tests.
graph::MixedSocialNetwork SmallNetwork(uint64_t seed) {
  data::GeneratorConfig gen;
  gen.num_nodes = 150;
  gen.ties_per_node = 4.0;
  gen.bidirectional_fraction = 0.2;
  gen.seed = seed;
  return data::GenerateStatusNetwork(gen);
}

// ------------------------------------------------------------- primitives

TEST(ObsCounterTest, AddsAndResets) {
  obs::Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(ObsCounterTest, ConcurrentAddsAllLand) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(ObsGaugeTest, LastValueWins) {
  obs::Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -1.25);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(ObsHistogramTest, StatsSummarizeObservations) {
  obs::Histogram histogram;
  for (double v : {1.0, 2.0, 4.0, 8.0}) histogram.Observe(v);
  const obs::HistogramStats stats = histogram.Stats();
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.sum, 15.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 8.0);
  EXPECT_DOUBLE_EQ(stats.mean, 3.75);
  // Quantiles are log2-bucket upper-bound estimates: ordered, and bounded
  // by the observed range up to one bucket of slack (a factor of two).
  EXPECT_GE(stats.p50, stats.min);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_LE(stats.p99, stats.max * 2.0);
}

TEST(ObsHistogramTest, EmptyZeroAndNegativeObservations) {
  obs::Histogram histogram;
  const obs::HistogramStats empty = histogram.Stats();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);

  // Values at or below the first bucket bound land in bucket zero instead
  // of faulting (log2 of a non-positive value is undefined).
  histogram.Observe(0.0);
  histogram.Observe(-3.0);
  const obs::HistogramStats stats = histogram.Stats();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.min, -3.0);
  EXPECT_DOUBLE_EQ(stats.max, 0.0);
  EXPECT_TRUE(std::isfinite(stats.p50));
}

TEST(ObsHistogramTest, ConcurrentObservationsAllLand) {
  obs::Histogram histogram;
  constexpr int kThreads = 4;
  constexpr int kObservationsPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kObservationsPerThread; ++i) {
        histogram.Observe(2.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const obs::HistogramStats stats = histogram.Stats();
  EXPECT_EQ(stats.count,
            static_cast<uint64_t>(kThreads) * kObservationsPerThread);
  EXPECT_DOUBLE_EQ(stats.sum, 2.0 * kThreads * kObservationsPerThread);
  EXPECT_DOUBLE_EQ(stats.min, 2.0);
  EXPECT_DOUBLE_EQ(stats.max, 2.0);
}

// --------------------------------------------------------------- registry

TEST(ObsRegistryTest, GetReturnsStablePointers) {
  obs::Registry registry;
  obs::Counter* counter = registry.GetCounter("c");
  EXPECT_EQ(registry.GetCounter("c"), counter);
  EXPECT_NE(registry.GetCounter("other"), counter);
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
}

TEST(ObsRegistryTest, SnapshotMergesAllKindsAndResetKeepsPointers) {
  obs::Registry registry;
  obs::Counter* counter = registry.GetCounter("events");
  counter->Add(7);
  registry.GetGauge("speed")->Set(1.5);
  registry.GetHistogram("latency")->Observe(0.25);
  registry.Append("loss", 0.9);
  registry.Append("loss", 0.8);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.counters.at("events"), 7u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("speed"), 1.5);
  EXPECT_EQ(snapshot.histograms.at("latency").count, 1u);
  EXPECT_EQ(snapshot.series.at("loss"),
            (std::vector<double>{0.9, 0.8}));

  registry.Reset();
  counter->Add(1);  // the cached pointer must survive Reset
  const obs::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("events"), 1u);
  EXPECT_DOUBLE_EQ(after.gauges.at("speed"), 0.0);
  EXPECT_EQ(after.histograms.at("latency").count, 0u);
  EXPECT_TRUE(after.series.empty());
}

TEST(ObsRegistryTest, EnabledGateStartsOffAndToggles) {
  obs::Registry registry;
  EXPECT_FALSE(registry.enabled());
  registry.set_enabled(true);
  EXPECT_TRUE(registry.enabled());
  registry.set_enabled(false);
  EXPECT_FALSE(registry.enabled());
}

// ----------------------------------------------------------------- export

TEST(ObsSnapshotTest, JsonIsWellFormedAndCoversEveryKind) {
  obs::Registry registry;
  registry.GetCounter("events")->Add(3);
  registry.GetGauge("speed")->Set(2.5);
  registry.GetHistogram("latency")->Observe(1.0);
  registry.Append("loss", 0.5);

  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 3"), std::string::npos);
  // Strict JSON: balanced braces and an even number of quotes.
  size_t open = 0, close = 0, quotes = 0;
  for (char c : json) {
    open += (c == '{');
    close += (c == '}');
    quotes += (c == '"');
  }
  EXPECT_EQ(open, close);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ObsSnapshotTest, NonFiniteValuesAreClampedInJson) {
  obs::Registry registry;
  registry.GetGauge("bad")->Set(std::numeric_limits<double>::infinity());
  registry.Append("worse", std::nan(""));
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(ObsSnapshotTest, CsvEmitsLongFormRows) {
  obs::Registry registry;
  registry.GetCounter("events")->Add(5);
  registry.GetHistogram("latency")->Observe(1.0);
  registry.Append("loss", 0.5);
  const std::string path = TempPath("obs_snapshot.csv");
  ASSERT_TRUE(registry.Snapshot().WriteCsv(path).ok());

  const std::string csv = ReadFile(path);
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,events,value,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,latency,count,1"), std::string::npos);
  EXPECT_NE(csv.find("series,loss,0,"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- phase tracing

TEST(ObsTraceTest, PhaseScopeRecordsDurationAndCallCount) {
  ScopedDefaultRegistry guard;
  {
    obs::PhaseScope scope("obs_test.phase");
  }
  {
    obs::PhaseScope scope("obs_test.phase");
  }
  const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
  EXPECT_EQ(snapshot.counters.at("phase.obs_test.phase.calls"), 2u);
  const obs::HistogramStats stats =
      snapshot.histograms.at("phase.obs_test.phase.seconds");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_GE(stats.sum, 0.0);
  EXPECT_TRUE(std::isfinite(stats.sum));
}

TEST(ObsTraceTest, DisabledRegistryRecordsNothing) {
  obs::Registry::Default().Reset();
  obs::Registry::Default().set_enabled(false);
  {
    obs::PhaseScope scope("obs_test.dark");
  }
  const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
  EXPECT_EQ(snapshot.counters.count("phase.obs_test.dark.calls"), 0u);
  EXPECT_EQ(snapshot.histograms.count("phase.obs_test.dark.seconds"), 0u);
  obs::Registry::Default().Reset();
}

// A registry gate that turns off between a PhaseScope's construction and
// teardown must suppress the teardown write entirely: the call counter
// (bumped at construction, while recording was still sanctioned) stays, but
// no duration lands in a registry the owner has switched off.
TEST(ObsTraceTest, PhaseScopeMidSpanDisableLeavesRegistryUntouched) {
  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();
  registry.set_enabled(true);
  {
    obs::PhaseScope scope("obs_test.mid_disable");
    registry.set_enabled(false);
  }
  registry.set_enabled(true);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("phase.obs_test.mid_disable.calls"), 1u);
  EXPECT_EQ(snapshot.histograms.at("phase.obs_test.mid_disable.seconds").count,
            0u);
  registry.set_enabled(false);
  registry.Reset();
}

// ---------------------------------------------------------------- timeline

TEST(ObsTimelineTest, SnapshotLineIsValidJsonCoveringEveryKind) {
  obs::Registry registry;
  registry.GetCounter("events")->Add(3);
  registry.GetGauge("speed")->Set(2.5);
  registry.Append("loss", 0.9);
  registry.Append("loss", 0.4);

  const std::string line =
      obs::TimelineWriter::SnapshotLine(1.5, registry.Snapshot());
  ASSERT_TRUE(testing::JsonLinter::Valid(line)) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one JSONL record
  EXPECT_NE(line.find("\"wall_seconds\": 1.5"), std::string::npos);
  EXPECT_NE(line.find("\"events\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"speed\": 2.5"), std::string::npos);
  // Series are summarized as length + latest value, not dumped whole.
  EXPECT_NE(line.find("\"series_len\""), std::string::npos);
  EXPECT_NE(line.find("\"series_last\""), std::string::npos);
  EXPECT_NE(line.find("\"loss\": 2"), std::string::npos);
  EXPECT_NE(line.find("\"loss\": 0.4"), std::string::npos);
}

TEST(ObsTimelineTest, WriterAppendsParseableTicksWhileTraining) {
  ScopedDefaultRegistry guard;
  obs::Registry::Default().GetCounter("obs_test.timeline.events")->Add(7);

  const std::string path = TempPath("obs_timeline.jsonl");
  obs::TimelineWriter writer(path, 0.02);
  ASSERT_TRUE(writer.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(90));
  writer.Stop();

  // Periodic ticks plus the guaranteed final tick on Stop().
  EXPECT_GE(writer.ticks(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  uint64_t lines = 0;
  double last_wall = -1.0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(testing::JsonLinter::Valid(line)) << line;
    EXPECT_NE(line.find("\"wall_seconds\""), std::string::npos);
    EXPECT_NE(line.find("\"obs_test.timeline.events\": 7"),
              std::string::npos);
    const double wall =
        std::stod(line.substr(line.find("\"wall_seconds\": ") + 16));
    EXPECT_GT(wall, last_wall);  // wall clock strictly advances per tick
    last_wall = wall;
    ++lines;
  }
  EXPECT_EQ(lines, writer.ticks());
  std::remove(path.c_str());
}

TEST(ObsTimelineTest, ShortRunsStillGetOneFinalTickAndStopIsIdempotent) {
  ScopedDefaultRegistry guard;
  const std::string path = TempPath("obs_timeline_short.jsonl");
  obs::TimelineWriter writer(path, 60.0);  // interval far beyond the test
  ASSERT_TRUE(writer.Start().ok());
  writer.Stop();
  writer.Stop();
  EXPECT_EQ(writer.ticks(), 1u);

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(testing::JsonLinter::Valid(line)) << line;
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(ObsTimelineTest, StartFailsCleanlyOnUnwritablePath) {
  obs::TimelineWriter writer("/nonexistent-dir/timeline.jsonl", 0.1);
  const auto status = writer.Start();
  EXPECT_FALSE(status.ok());
  writer.Stop();  // must be safe after a failed Start
  EXPECT_EQ(writer.ticks(), 0u);
}

// -------------------------------------------------------------- end-to-end

// The tdl_cli-equivalent pipeline: save + reload a network, train the
// DeepDirect E/D-steps and the LINE model (LINE embedding + logistic
// regression) as `tdl_cli discover` would — four SgdDriver runs — and
// check the snapshot has every telemetry surface the --metrics-out
// contract promises.
TEST(ObsEndToEndTest, PipelineSnapshotCoversAllFourTrainers) {
  ScopedDefaultRegistry guard;

  const auto generated = SmallNetwork(9);
  const std::string net_path = TempPath("obs_e2e_net.tsv");
  ASSERT_TRUE(graph::SaveEdgeList(generated, net_path).ok());
  auto loaded = graph::LoadEdgeList(net_path);
  ASSERT_TRUE(loaded.ok());
  const size_t num_nodes = loaded.value().num_nodes();
  util::Rng rng(11);
  const auto split = graph::HideDirections(loaded.value(), 0.5, rng);

  auto configs = core::MethodConfigs::FastDefaults();
  configs.deepdirect.dimensions = 16;
  configs.deepdirect.epochs = 1.0;
  configs.line.line.dimensions = 16;
  const auto deepdirect_model =
      core::TrainMethod(split.network, core::Method::kDeepDirect, configs);
  const auto line_model =
      core::TrainMethod(split.network, core::Method::kLine, configs);
  ASSERT_NE(deepdirect_model, nullptr);
  ASSERT_NE(line_model, nullptr);

  const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();

  // Per-epoch losses for all four SgdDriver runs: estimated from the
  // sampled steps for the E-step and LINE, exact for the two logistic
  // regression heads. A cross-entropy sum is positive, so a zero entry
  // means a trainer reported no loss at all.
  for (const char* name :
       {"train.deepdirect.estep.run_loss", "train.deepdirect.dstep.run_loss",
        "train.line.run_loss", "train.logreg.run_loss"}) {
    ASSERT_TRUE(snapshot.series.contains(name)) << name;
    ASSERT_FALSE(snapshot.series.at(name).empty()) << name;
    for (double value : snapshot.series.at(name)) {
      EXPECT_TRUE(std::isfinite(value)) << name;
      EXPECT_GT(value, 0.0) << name;
    }
  }
  // No windowed loss series remains.
  for (const auto& [name, values] : snapshot.series) {
    EXPECT_FALSE(name.ends_with(".loss")) << name;
  }
  // Epoch-per-Run trainers report one run_loss entry per epoch.
  EXPECT_EQ(snapshot.series.at("train.logreg.run_loss").size(),
            configs.line.regression.epochs);
  EXPECT_EQ(snapshot.series.at("train.deepdirect.dstep.run_loss").size(),
            configs.deepdirect.d_step.epochs);

  // Phase timings for the training pipeline and graph loading.
  for (const char* name :
       {"phase.graph.load.seconds", "phase.deepdirect.train.seconds",
        "phase.deepdirect.preprocess.seconds",
        "phase.deepdirect.estep.seconds", "phase.deepdirect.dstep.seconds"}) {
    ASSERT_TRUE(snapshot.histograms.contains(name)) << name;
    const obs::HistogramStats& stats = snapshot.histograms.at(name);
    EXPECT_GE(stats.count, 1u) << name;
    EXPECT_TRUE(std::isfinite(stats.sum)) << name;
    EXPECT_GE(stats.sum, 0.0) << name;
  }

  // Step counters, throughput gauges, and sampler counters.
  EXPECT_GT(snapshot.counters.at("train.deepdirect.estep.steps"), 0u);
  EXPECT_GT(snapshot.counters.at("train.line.steps"), 0u);
  EXPECT_GT(snapshot.counters.at("graph.load.ties"), 0u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("graph.load.nodes"),
                   static_cast<double>(num_nodes));
  for (const char* name : {"train.deepdirect.estep.examples_per_sec",
                           "train.line.examples_per_sec"}) {
    ASSERT_TRUE(snapshot.gauges.contains(name)) << name;
    EXPECT_TRUE(std::isfinite(snapshot.gauges.at(name))) << name;
    EXPECT_GT(snapshot.gauges.at(name), 0.0) << name;
  }
  EXPECT_GT(
      snapshot.counters.at("deepdirect.estep.sampler.labeled_steps") +
          snapshot.counters.at(
              "deepdirect.estep.sampler.degree_pattern_steps") +
          snapshot.counters.at("deepdirect.estep.sampler.triad_pattern_steps"),
      0u);

  // The JSON export round-trips: well-formed, carries the required keys,
  // and contains no non-finite literals.
  const std::string json_path = TempPath("obs_e2e_metrics.json");
  ASSERT_TRUE(snapshot.WriteJson(json_path).ok());
  const std::string json = ReadFile(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  size_t open = 0, close = 0;
  for (char c : json) {
    open += (c == '{');
    close += (c == '}');
  }
  EXPECT_EQ(open, close);
  for (const char* key :
       {"\"train.deepdirect.estep.run_loss\"", "\"train.line.run_loss\"",
        "\"phase.deepdirect.estep.seconds\"",
        "\"train.deepdirect.estep.examples_per_sec\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(net_path.c_str());
}

// ------------------------------------------------- determinism regression

// Telemetry must be a pure observer: with num_threads = 1 the E-Step, the
// D-Step head it feeds and LINE must produce bit-identical parameters
// whether the registry is recording (and the driver sampling losses) or not.
TEST(ObsDeterminismTest, SerialTrainingIsBitIdenticalWithMetricsOnAndOff) {
  const auto net = SmallNetwork(13);
  core::DeepDirectConfig config;
  config.dimensions = 16;
  config.epochs = 2.0;
  config.seed = 7;
  config.num_threads = 1;
  config.d_step.num_threads = 1;

  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();
  registry.set_enabled(false);
  const auto model_off = core::DeepDirectModel::Train(net, config);

  embedding::LineConfig line_config;
  line_config.dimensions = 16;
  line_config.samples_per_arc = 4;
  const auto line_off = embedding::LineEmbedding::Train(net, line_config);

  registry.set_enabled(true);
  const auto model_on = core::DeepDirectModel::Train(net, config);
  const auto line_on = embedding::LineEmbedding::Train(net, line_config);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  registry.set_enabled(false);
  registry.Reset();
  // The recording runs did sample losses.
  ASSERT_TRUE(snapshot.series.contains("train.deepdirect.estep.run_loss"));
  ASSERT_TRUE(snapshot.series.contains("train.line.run_loss"));

  const auto& data_off = model_off->embeddings().data();
  const auto& data_on = model_on->embeddings().data();
  ASSERT_EQ(data_off.size(), data_on.size());
  for (size_t i = 0; i < data_off.size(); ++i) {
    ASSERT_EQ(data_off[i], data_on[i]) << "embedding element " << i;
  }
  const auto& weights_off = model_off->e_step_weights();
  const auto& weights_on = model_on->e_step_weights();
  ASSERT_EQ(weights_off.size(), weights_on.size());
  for (size_t i = 0; i < weights_off.size(); ++i) {
    ASSERT_EQ(weights_off[i], weights_on[i]) << "classifier weight " << i;
  }
  ASSERT_EQ(model_off->e_step_bias(), model_on->e_step_bias());

  const auto& d_off = model_off->d_step_regression();
  const auto& d_on = model_on->d_step_regression();
  ASSERT_EQ(d_off.weights(), d_on.weights());
  ASSERT_EQ(d_off.bias(), d_on.bias());

  for (graph::NodeId u = 0; u < net.num_nodes(); ++u) {
    const auto first_off = line_off.FirstOrder(u);
    const auto first_on = line_on.FirstOrder(u);
    const auto second_off = line_off.SecondOrder(u);
    const auto second_on = line_on.SecondOrder(u);
    ASSERT_TRUE(std::equal(first_off.begin(), first_off.end(),
                           first_on.begin(), first_on.end()))
        << "LINE first-order row " << u;
    ASSERT_TRUE(std::equal(second_off.begin(), second_off.end(),
                           second_on.begin(), second_on.end()))
        << "LINE second-order row " << u;
  }
}

}  // namespace
}  // namespace deepdirect
