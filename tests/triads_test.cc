// Unit tests for the directed triad census, triangle counting, and the line
// graph (the connected-tie oracle).

#include <gtest/gtest.h>

#include <set>

#include "graph/line_graph.h"
#include "graph/triads.h"

namespace deepdirect::graph {
namespace {

TEST(ClassifyRelationTest, AllFourCategories) {
  GraphBuilder builder(5);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(2, 0, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(0, 3, TieType::kBidirectional).ok());
  EXPECT_TRUE(builder.AddTie(0, 4, TieType::kUndirected).ok());
  const auto net = std::move(builder).Build();

  EXPECT_EQ(ClassifyRelation(net, 0, 1), TieRelation::kForward);
  EXPECT_EQ(ClassifyRelation(net, 1, 0), TieRelation::kBackward);
  EXPECT_EQ(ClassifyRelation(net, 0, 2), TieRelation::kBackward);
  EXPECT_EQ(ClassifyRelation(net, 2, 0), TieRelation::kForward);
  EXPECT_EQ(ClassifyRelation(net, 0, 3), TieRelation::kBoth);
  EXPECT_EQ(ClassifyRelation(net, 3, 0), TieRelation::kBoth);
  EXPECT_EQ(ClassifyRelation(net, 0, 4), TieRelation::kUnknown);
  EXPECT_EQ(ClassifyRelation(net, 4, 0), TieRelation::kUnknown);
}

TEST(TriadTypeIndexTest, BijectiveOverSixteenTypes) {
  std::set<size_t> seen;
  for (int wu = 0; wu < 4; ++wu) {
    for (int wv = 0; wv < 4; ++wv) {
      const size_t idx = TriadTypeIndex(static_cast<TieRelation>(wu),
                                        static_cast<TieRelation>(wv));
      EXPECT_LT(idx, kNumTriadTypes);
      seen.insert(idx);
    }
  }
  EXPECT_EQ(seen.size(), kNumTriadTypes);
}

TEST(DirectedTriadCountsTest, SingleTriadClassified) {
  // Triangle u=0, v=1, common neighbor w=2 with w->u directed and w-v
  // bidirectional; tie (u, v) undirected (its own direction is ignored).
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kUndirected).ok());
  EXPECT_TRUE(builder.AddTie(2, 0, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(2, 1, TieType::kBidirectional).ok());
  const auto net = std::move(builder).Build();

  const auto counts = DirectedTriadCounts(net, 0, 1);
  uint32_t total = 0;
  for (uint32_t c : counts) total += c;
  EXPECT_EQ(total, 1u);
  const size_t expected =
      TriadTypeIndex(TieRelation::kForward, TieRelation::kBoth);
  EXPECT_EQ(counts[expected], 1u);

  // Reversing the queried tie transposes the relation pair.
  const auto reversed = DirectedTriadCounts(net, 1, 0);
  const size_t transposed =
      TriadTypeIndex(TieRelation::kBoth, TieRelation::kForward);
  EXPECT_EQ(reversed[transposed], 1u);
}

TEST(DirectedTriadCountsTest, MultipleCommonNeighbors) {
  // u=0, v=1 with common neighbors 2, 3, 4 all connected by directed ties
  // w -> u and w -> v.
  GraphBuilder builder(5);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  for (NodeId w = 2; w <= 4; ++w) {
    EXPECT_TRUE(builder.AddTie(w, 0, TieType::kDirected).ok());
    EXPECT_TRUE(builder.AddTie(w, 1, TieType::kDirected).ok());
  }
  const auto net = std::move(builder).Build();
  const auto counts = DirectedTriadCounts(net, 0, 1);
  const size_t type =
      TriadTypeIndex(TieRelation::kForward, TieRelation::kForward);
  EXPECT_EQ(counts[type], 3u);
  uint32_t total = 0;
  for (uint32_t c : counts) total += c;
  EXPECT_EQ(total, 3u);
}

TEST(DirectedTriadCountsTest, NoCommonNeighborsAllZero) {
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(2, 3, TieType::kDirected).ok());
  const auto net = std::move(builder).Build();
  for (uint32_t c : DirectedTriadCounts(net, 0, 1)) EXPECT_EQ(c, 0u);
}

TEST(CountTrianglesTest, CompleteGraphK4) {
  GraphBuilder builder(4);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) {
      EXPECT_TRUE(builder.AddTie(u, v, TieType::kUndirected).ok());
    }
  }
  EXPECT_EQ(CountTriangles(std::move(builder).Build()), 4u);
}

TEST(CountTrianglesTest, MixedTypesCountOnce) {
  // One triangle built from one tie of each type.
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  EXPECT_TRUE(builder.AddTie(0, 2, TieType::kUndirected).ok());
  EXPECT_EQ(CountTriangles(std::move(builder).Build()), 1u);
}

TEST(CountTrianglesTest, TreeHasNone) {
  GraphBuilder builder(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_TRUE(builder.AddTie(0, leaf, TieType::kUndirected).ok());
  }
  EXPECT_EQ(CountTriangles(std::move(builder).Build()), 0u);
}

TEST(ClusteringTest, TriangleIsOne) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kUndirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kUndirected).ok());
  EXPECT_TRUE(builder.AddTie(0, 2, TieType::kUndirected).ok());
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(std::move(builder).Build()),
                   1.0);
}

TEST(ClusteringTest, StarIsZero) {
  GraphBuilder builder(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    EXPECT_TRUE(builder.AddTie(0, leaf, TieType::kDirected).ok());
  }
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(std::move(builder).Build()),
                   0.0);
}

TEST(LineGraphTest, SizeMatchesPrediction) {
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  EXPECT_TRUE(builder.AddTie(2, 3, TieType::kUndirected).ok());
  const auto net = std::move(builder).Build();
  const auto line = BuildLineGraph(net);
  EXPECT_EQ(line.num_nodes, net.num_arcs());
  EXPECT_EQ(line.edges.size(), PredictLineGraphSize(net));
  // (0,1) -> (1,2), (1,2) -> (2,3) and (3,2) -> (2,1).
  EXPECT_EQ(PredictLineGraphSize(net), 3u);
}

TEST(LineGraphTest, EdgesAreConnectedTiePairs) {
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(2, 0, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 3, TieType::kDirected).ok());
  const auto net = std::move(builder).Build();
  const auto line = BuildLineGraph(net);
  for (const auto& [e1, e2] : line.edges) {
    // Definition of the line digraph: head of e1 is tail of e2, and e2 does
    // not return to e1's tail.
    EXPECT_EQ(net.arc(e1).dst, net.arc(e2).src);
    EXPECT_NE(net.arc(e2).dst, net.arc(e1).src);
  }
  // (0,1)->(1,2), (0,1)->(1,3), (1,2)->(2,0), (2,0)->(0,1): 4 edges.
  EXPECT_EQ(line.edges.size(), 4u);
}

}  // namespace
}  // namespace deepdirect::graph
