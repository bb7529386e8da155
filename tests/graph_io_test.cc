// Unit tests for edge-list serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "address_space_limit.h"
#include "data/generators.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"

namespace deepdirect::graph {
namespace {

TEST(GraphIoTest, RoundTripThroughStream) {
  GraphBuilder builder(6);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  EXPECT_TRUE(builder.AddTie(3, 4, TieType::kUndirected).ok());
  const auto original = std::move(builder).Build();

  std::stringstream buffer;
  WriteEdgeList(original, buffer);
  auto loaded = ReadEdgeList(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto& net = loaded.value();
  EXPECT_EQ(net.num_nodes(), 6u);
  EXPECT_EQ(net.num_ties(), 3u);
  EXPECT_EQ(net.num_directed_ties(), 1u);
  EXPECT_EQ(net.num_bidirectional_ties(), 1u);
  EXPECT_EQ(net.num_undirected_ties(), 1u);
  EXPECT_TRUE(net.HasArc(0, 1));
  EXPECT_FALSE(net.HasArc(1, 0));
  EXPECT_TRUE(net.HasArc(1, 2));
  EXPECT_TRUE(net.HasArc(2, 1));
}

TEST(GraphIoTest, RoundTripThroughFile) {
  data::GeneratorConfig config;
  config.num_nodes = 150;
  config.ties_per_node = 3.0;
  config.seed = 3;
  const auto original = data::GenerateStatusNetwork(config);

  const std::string path = "/tmp/deepdirect_io_test.edges";
  ASSERT_TRUE(SaveEdgeList(original, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  const auto& net = loaded.value();
  EXPECT_EQ(net.num_nodes(), original.num_nodes());
  EXPECT_EQ(net.num_ties(), original.num_ties());
  EXPECT_EQ(net.num_directed_ties(), original.num_directed_ties());
  // Arc-level equality: same canonical arc list.
  ASSERT_EQ(net.num_arcs(), original.num_arcs());
  for (ArcId id = 0; id < net.num_arcs(); ++id) {
    EXPECT_EQ(net.arc(id), original.arc(id));
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "0 1 d\n"
      "# another\n"
      "1 2 u\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_ties(), 2u);
  EXPECT_EQ(loaded.value().num_nodes(), 3u);  // inferred from max id
}

TEST(GraphIoTest, DeclaredNodeCountHonored) {
  std::stringstream in("# nodes 10\n0 1 d\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 10u);
}

TEST(GraphIoTest, CrlfLineEndingsParse) {
  // Windows-edited edge lists carry \r\n terminators; the trailing \r must
  // not leak into the type token or the '# nodes' header value.
  std::stringstream in(
      "# nodes 10\r\n"
      "0 1 d\r\n"
      "1 2 u\r\n"
      "2 3 b\r\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), 10u);
  EXPECT_EQ(loaded.value().num_ties(), 3u);
  EXPECT_TRUE(loaded.value().HasArc(0, 1));
  EXPECT_FALSE(loaded.value().HasArc(1, 0));
}

TEST(GraphIoTest, WhitespaceOnlyLinesIgnored) {
  // Lines that are blank after trimming (spaces, tabs, a lone \r) are
  // separators, not malformed ties.
  std::stringstream in(
      "0 1 d\n"
      "   \t \n"
      "\r\n"
      "1 2 u\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_ties(), 2u);
}

TEST(GraphIoTest, RejectsTrailingGarbageWithLineNumber) {
  std::stringstream in(
      "0 1 d\n"
      "1 2 u extra\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  // The error must pinpoint the offending line and echo the stray token.
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("extra"), std::string::npos);
}

TEST(GraphIoTest, RejectsMergedLinesAsTrailingGarbage) {
  // A missing newline gluing two records together must not silently drop
  // the second tie.
  std::stringstream in("0 1 d 1 2 u\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, RejectsUnknownTieType) {
  std::stringstream in("0 1 x\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, RejectsMalformedLine) {
  std::stringstream in("0 d\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(GraphIoTest, RejectsNegativeNodeIds) {
  std::stringstream in("-1 2 d\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(GraphIoTest, RejectsNodeBeyondDeclaredCount) {
  std::stringstream in("# nodes 2\n0 5 d\n");
  auto loaded = ReadEdgeList(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

// Node ids are 32-bit: an id must leave room for the node count max id + 1
// (so it lies in [0, 2^32 − 1)), and a `# nodes` count must fit as well.
TEST(GraphIoTest, RejectsIdsAndCountsBeyondNodeIdLineAnchored) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"4294967296 1 d\n1 2 u\n2 3 b\n", "node id 4294967296 at line 1"},
      {"1 2 u\n4294967295 0 d\n", "node id 4294967295 at line 2"},
      {"1 2 u\n2 4294967295 b\n", "node id 4294967295 at line 2"},
      {"# nodes 4294967297\n0 1 d\n", "header at line 1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    std::stringstream in(c.text);
    auto loaded = ReadEdgeList(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(c.needle), std::string::npos)
        << loaded.status().ToString();
  }
}

// A count the grammar accepts can still ask for more memory than there is:
// Build() sizes its per-node arrays by the count, not by the ties.
TEST(GraphIoTest, UnallocatableNodeCountIsResourceExhausted) {
  if (deepdirect::testing::kSanitizerReservesAddressSpace) {
    GTEST_SKIP() << "the sanitizer's shadow memory exceeds the cap";
  }
  EXPECT_EXIT(
      {
        std::stringstream in("# nodes 4294967295\n0 1 d\n");
        if (!deepdirect::testing::CapAddressSpace()) std::exit(2);
        const auto loaded = ReadEdgeList(in);
        std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
        std::exit(!loaded.ok() && loaded.status().code() ==
                                      util::StatusCode::kResourceExhausted
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "RESOURCE_EXHAUSTED: .*4294967295 nodes");
}

TEST(GraphIoTest, RejectsDuplicateTies) {
  std::stringstream in("0 1 d\n1 0 b\n");
  EXPECT_FALSE(ReadEdgeList(in).ok());
}

TEST(GraphIoTest, MissingFileReportsIOError) {
  auto loaded = LoadEdgeList("/nonexistent/deepdirect.edges");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
}

TEST(GraphIoTest, EmptyInputYieldsEmptyNetwork) {
  std::stringstream in("");
  auto loaded = ReadEdgeList(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 0u);
  EXPECT_EQ(loaded.value().num_ties(), 0u);
}

TEST(GraphIoTest, FileSizeReserveHintBoundsReallocations) {
  // LoadEdgeList reserves the tie buffer from the file size (hint / 12, a
  // deliberate under-estimate), so the parse must grow the buffer at most
  // once no matter how many ties the file holds. Regression test for the
  // doubling-realloc crawl on multi-GB edge lists.
  data::GeneratorConfig gen;
  gen.num_nodes = 3000;
  gen.ties_per_node = 4.0;
  gen.seed = 21;
  const auto net = data::GenerateStatusNetwork(gen);
  const std::string path = "/tmp/deepdirect_graphio_realloc.edges";
  ASSERT_TRUE(SaveEdgeList(net, path).ok());

  obs::Registry& registry = obs::Registry::Default();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  obs::Counter* reallocs = registry.GetCounter("graph.load.tie_reallocs");
  reallocs->Reset();
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_ties(), net.num_ties());
  EXPECT_LE(reallocs->Value(), 1u)
      << "the file-size reserve hint no longer bounds buffer growth";

  // Contrast: the same bytes parsed with no size hint must double their
  // way up — that growth is what the hint exists to prevent. (Skipped in
  // no-telemetry builds, where counters always read zero.)
  if (obs::Enabled()) {
    std::ifstream in(path);
    reallocs->Reset();
    auto unhinted = ReadEdgeList(in);
    ASSERT_TRUE(unhinted.ok());
    EXPECT_GT(reallocs->Value(), 1u);
  }
  registry.set_enabled(was_enabled);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepdirect::graph
