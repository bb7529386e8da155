// Tests for the trace-timeline subsystem (src/obs/trace_buffer.h, trace.h):
// the bounded thread-sharded span buffer, the TraceSpan RAII gate semantics
// (including mid-span disable), nesting-depth bookkeeping, the Chrome
// trace_event JSON export (validated with an independent JSON parser), and
// an end-to-end check that a traced DeepDirect training run emits the
// E-Step / D-Step / epoch / checkpoint spans the --trace-out contract
// promises.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deepdirect.h"
#include "core/models.h"
#include "data/generators.h"
#include "json_lint.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "train/checkpoint.h"
#include "util/random.h"

namespace deepdirect {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

// Resets + enables the default trace buffer for a test and restores the
// disabled default (and default capacity) afterwards. The buffer is a
// process-wide singleton, so tests sharing one binary must clean up.
struct ScopedDefaultTraceBuffer {
  ScopedDefaultTraceBuffer() {
    obs::TraceBuffer::Default().Reset();
    obs::TraceBuffer::Default().set_enabled(true);
  }
  ~ScopedDefaultTraceBuffer() {
    obs::TraceBuffer::Default().set_enabled(false);
    obs::TraceBuffer::Default().set_shard_capacity(
        obs::TraceBuffer::kDefaultShardCapacity);
    obs::TraceBuffer::Default().Reset();
  }
};

obs::TraceEvent MakeEvent(const std::string& name, uint64_t start_ns,
                          uint64_t end_ns, uint32_t depth = 0) {
  obs::TraceEvent event;
  event.name = name;
  event.tid = obs::internal::TraceThreadId();
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.depth = depth;
  return event;
}

// ------------------------------------------------------------ buffer gate

TEST(TraceBufferTest, StartsDisabledAndDropsWhenDisabled) {
  obs::TraceBuffer buffer;
  EXPECT_FALSE(buffer.enabled());
  buffer.Record(MakeEvent("dark", 1, 2));
  EXPECT_TRUE(buffer.Events().empty());
  EXPECT_EQ(buffer.dropped(), 1u);

  buffer.set_enabled(true);
  buffer.Record(MakeEvent("lit", 3, 4));
  ASSERT_EQ(buffer.Events().size(), 1u);
  EXPECT_EQ(buffer.Events()[0].name, "lit");
}

TEST(TraceBufferTest, ResetClearsEventsAndDropCounter) {
  obs::TraceBuffer buffer;
  buffer.Record(MakeEvent("dropped", 1, 2));  // disabled: counts a drop
  buffer.set_enabled(true);
  buffer.Record(MakeEvent("kept", 3, 4));
  EXPECT_EQ(buffer.Events().size(), 1u);
  EXPECT_EQ(buffer.dropped(), 1u);

  buffer.Reset();
  EXPECT_TRUE(buffer.Events().empty());
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceBufferTest, EventsAreSortedByStartTime) {
  obs::TraceBuffer buffer;
  buffer.set_enabled(true);
  buffer.Record(MakeEvent("c", 30, 40));
  buffer.Record(MakeEvent("a", 10, 15));
  buffer.Record(MakeEvent("b", 20, 25));
  const auto events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
}

TEST(TraceBufferTest, ShardCapacityBoundsMemoryAndCountsDrops) {
  obs::TraceBuffer buffer;
  buffer.set_enabled(true);
  buffer.set_shard_capacity(4);
  // Single thread → a single shard → at most 4 events land.
  for (uint64_t i = 0; i < 10; ++i) {
    buffer.Record(MakeEvent("span", i, i + 1));
  }
  EXPECT_EQ(buffer.Events().size(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
}

TEST(TraceBufferTest, ConcurrentRecordsAllLand) {
  obs::TraceBuffer buffer;
  buffer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr uint64_t kSpansPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buffer] {
      for (uint64_t i = 0; i < kSpansPerThread; ++i) {
        buffer.Record(MakeEvent("worker", i, i + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(buffer.Events().size(), kThreads * kSpansPerThread);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceBufferTest, NowNsIsMonotonic) {
  const uint64_t a = obs::TraceBuffer::NowNs();
  const uint64_t b = obs::TraceBuffer::NowNs();
  EXPECT_GE(b, a);
}

// ------------------------------------------------------------- TraceSpan

TEST(TraceSpanTest, RecordsNamedEventWithOrderedTimestamps) {
  ScopedDefaultTraceBuffer guard;
  {
    obs::TraceSpan span("trace_test.unit");
  }
  const auto events = obs::TraceBuffer::Default().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "trace_test.unit");
  EXPECT_GE(events[0].end_ns, events[0].start_ns);
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(TraceSpanTest, DisabledBufferRecordsNothingAndCountsNoDrop) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::Default();
  buffer.Reset();
  buffer.set_enabled(false);
  {
    obs::TraceSpan span("trace_test.dark");
  }
  // An inactive span never even reaches Record(): no event, no drop.
  EXPECT_TRUE(buffer.Events().empty());
  EXPECT_EQ(buffer.dropped(), 0u);
  buffer.Reset();
}

TEST(TraceSpanTest, MidSpanDisableDropsTheEventAndCountsIt) {
  ScopedDefaultTraceBuffer guard;
  {
    obs::TraceSpan span("trace_test.cut_off");
    obs::TraceBuffer::Default().set_enabled(false);
  }
  // The span started while recording but must not land after the owner
  // switched the buffer off; the drop is visible in the counter.
  EXPECT_TRUE(obs::TraceBuffer::Default().Events().empty());
  EXPECT_EQ(obs::TraceBuffer::Default().dropped(), 1u);
}

TEST(TraceSpanTest, NestedSpansRecordEntryDepths) {
  ScopedDefaultTraceBuffer guard;
  {
    obs::TraceSpan outer("trace_test.outer");
    {
      obs::TraceSpan middle("trace_test.middle");
      {
        obs::TraceSpan inner("trace_test.inner");
      }
    }
  }
  const auto events = obs::TraceBuffer::Default().Events();
  ASSERT_EQ(events.size(), 3u);
  // Inner spans close (and record) first but start later.
  EXPECT_EQ(events[0].name, "trace_test.outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "trace_test.middle");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "trace_test.inner");
  EXPECT_EQ(events[2].depth, 2u);
  // Containment: each child runs inside its parent's window.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[1].start_ns, events[2].start_ns);
  EXPECT_LE(events[2].end_ns, events[1].end_ns);
  EXPECT_LE(events[1].end_ns, events[0].end_ns);
}

TEST(TraceSpanTest, DepthIsPerThread) {
  ScopedDefaultTraceBuffer guard;
  // A nested span on a worker thread starts at depth 0 there even while
  // this thread is inside a span of its own.
  obs::TraceSpan outer("trace_test.main_outer");
  std::thread worker([] {
    obs::TraceSpan span("trace_test.worker_top");
  });
  worker.join();
  const auto events = obs::TraceBuffer::Default().Events();
  ASSERT_EQ(events.size(), 1u);  // outer is still open
  EXPECT_EQ(events[0].name, "trace_test.worker_top");
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(TraceSpanTest, ConcurrentSpansGetDistinctThreadIds) {
  ScopedDefaultTraceBuffer guard;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span("trace_test.mt");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto events = obs::TraceBuffer::Default().Events();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  std::set<uint32_t> tids;
  for (const auto& event : events) tids.insert(event.tid);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

// ------------------------------------------------------ Chrome trace JSON

// Pulls every numeric value of `field` ("ts"/"dur") out of the trace JSON
// in document order, without a DOM.
std::vector<double> ExtractNumbers(const std::string& json,
                                   const std::string& field) {
  std::vector<double> values;
  const std::string needle = "\"" + field + "\": ";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    values.push_back(std::stod(json.substr(pos)));
  }
  return values;
}

TEST(ChromeTraceTest, EmptyBufferYieldsValidSkeleton) {
  obs::TraceBuffer buffer;
  const std::string json = buffer.ToChromeTraceJson();
  EXPECT_TRUE(testing::JsonLinter::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(ChromeTraceTest, ExportIsValidJsonWithMonotonicTimestamps) {
  obs::TraceBuffer buffer;
  buffer.set_enabled(true);
  buffer.Record(MakeEvent("load \"graph\"\n", 2'000, 5'000, 0));  // escaping
  buffer.Record(MakeEvent("estep", 1'000, 9'000, 0));
  buffer.Record(MakeEvent("epoch 0", 3'000, 4'000, 1));
  const std::string json = buffer.ToChromeTraceJson();

  ASSERT_TRUE(testing::JsonLinter::Valid(json)) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"deepdirect\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 1"), std::string::npos);
  // The raw name with a quote and newline must arrive escaped (control
  // characters as \u00xx), not verbatim.
  EXPECT_NE(json.find("load \\\"graph\\\"\\u000a"), std::string::npos);

  const auto ts = ExtractNumbers(json, "ts");
  ASSERT_EQ(ts.size(), 3u);
  for (size_t i = 1; i < ts.size(); ++i) {
    EXPECT_GE(ts[i], ts[i - 1]) << "ts out of order at event " << i;
  }
  EXPECT_DOUBLE_EQ(ts[0], 1.0);  // ns → µs
  for (double dur : ExtractNumbers(json, "dur")) {
    EXPECT_GE(dur, 0.0);
  }
}

TEST(ChromeTraceTest, DroppedEventsAreReported) {
  obs::TraceBuffer buffer;
  buffer.set_enabled(true);
  buffer.set_shard_capacity(1);
  buffer.Record(MakeEvent("kept", 1, 2));
  buffer.Record(MakeEvent("dropped", 3, 4));
  const std::string json = buffer.ToChromeTraceJson();
  EXPECT_TRUE(testing::JsonLinter::Valid(json)) << json;
  EXPECT_NE(json.find("\"dropped_events\": 1"), std::string::npos);
}

TEST(ChromeTraceTest, WriteChromeTraceRoundTripsAndReportsIoErrors) {
  obs::TraceBuffer buffer;
  buffer.set_enabled(true);
  buffer.Record(MakeEvent("span", 1, 2));

  const std::string path = TempPath("trace_test_chrome.json");
  ASSERT_TRUE(buffer.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), buffer.ToChromeTraceJson());
  std::remove(path.c_str());

  const auto bad = buffer.WriteChromeTrace("/nonexistent-dir/trace.json");
  EXPECT_FALSE(bad.ok());
}

// ------------------------------------------------------------- end-to-end

// A traced serial DeepDirect training run must emit the spans the
// --trace-out contract promises: the preprocess/E-Step/D-Step phases, the
// per-epoch spans, and (with checkpointing on) checkpoint writes — and the
// export of the whole thing must be valid JSON.
TEST(TraceEndToEndTest, TrainingEmitsPhaseEpochAndCheckpointSpans) {
  ScopedDefaultTraceBuffer guard;

  data::GeneratorConfig gen;
  gen.num_nodes = 120;
  gen.ties_per_node = 4.0;
  gen.bidirectional_fraction = 0.2;
  gen.seed = 17;
  const auto net = data::GenerateStatusNetwork(gen);

  core::DeepDirectConfig config = core::MethodConfigs::FastDefaults().deepdirect;
  config.num_threads = 1;
  config.d_step.num_threads = 1;
  core::DeepDirectModel::Train(net, config);

  // One checkpoint write through the real Checkpointer path.
  train::CheckpointOptions options;
  options.dir = TempPath("trace_test_ckpt");
  options.trainer = "trace_test";
  options.policy.every_n_epochs = 1;
  train::RunShape shape;
  shape.total_steps = 10;
  shape.steps_per_epoch = 10;
  static constexpr const char* kSections[] = {"meta", "trainer", "rng",
                                              "token"};
  static constexpr train::container::Format kTable{
      train::kCheckpointMagic, train::kCheckpointVersion, 0, kSections};
  uint64_t token = 42;
  train::Checkpointer checkpointer(
      options, shape, kTable,
      {std::as_writable_bytes(std::span(&token, 1))});
  util::Rng rng(3);
  // last=false: the policy only writes at non-final epoch boundaries.
  checkpointer.AtEpochBoundary({0, 10, 0.0, false}, rng);

  bool saw_estep = false, saw_dstep = false, saw_preprocess = false;
  bool saw_epoch = false, saw_checkpoint = false;
  const auto events = obs::TraceBuffer::Default().Events();
  EXPECT_FALSE(events.empty());
  for (const auto& event : events) {
    saw_estep |= event.name == "deepdirect.estep";
    saw_dstep |= event.name == "deepdirect.dstep";
    saw_preprocess |= event.name == "deepdirect.preprocess";
    saw_epoch |= event.name.find(".epoch ") != std::string::npos;
    saw_checkpoint |= event.name == "checkpoint.write";
    EXPECT_GE(event.end_ns, event.start_ns);
  }
  EXPECT_TRUE(saw_estep);
  EXPECT_TRUE(saw_dstep);
  EXPECT_TRUE(saw_preprocess);
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_checkpoint);

  // Epoch spans nest inside their phase span.
  for (const auto& event : events) {
    if (event.name.find(".epoch ") != std::string::npos) {
      EXPECT_GE(event.depth, 1u) << event.name;
    }
  }

  const std::string json = obs::TraceBuffer::Default().ToChromeTraceJson();
  EXPECT_TRUE(testing::JsonLinter::Valid(json));
  EXPECT_NE(json.find("deepdirect.estep"), std::string::npos);

  for (const auto& path :
       train::ListCheckpoints(options.dir, options.trainer)) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace deepdirect
