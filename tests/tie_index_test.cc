// Tests for the symmetric-closure TieIndex that underlies DeepDirect's
// embedding rows.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/tie_index.h"
#include "data/generators.h"
#include "graph/line_graph.h"

namespace deepdirect::core {
namespace {

using graph::GraphBuilder;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

MixedSocialNetwork SmallMixed() {
  // 0 -> 1 directed, 1 - 2 bidirectional, 2 - 3 undirected.
  GraphBuilder builder(4);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  EXPECT_TRUE(builder.AddTie(2, 3, TieType::kUndirected).ok());
  return std::move(builder).Build();
}

TEST(TieIndexTest, ClosureHasTwoArcsPerTie) {
  const auto net = SmallMixed();
  const TieIndex index(net);
  EXPECT_EQ(index.num_arcs(), 2 * net.num_ties());
  EXPECT_EQ(index.num_nodes(), net.num_nodes());
}

TEST(TieIndexTest, ArcClasses) {
  const auto net = SmallMixed();
  const TieIndex index(net);
  EXPECT_EQ(index.Class(index.IndexOf(0, 1)), ArcClass::kLabeledPositive);
  EXPECT_EQ(index.Class(index.IndexOf(1, 0)), ArcClass::kLabeledNegative);
  EXPECT_EQ(index.Class(index.IndexOf(1, 2)), ArcClass::kBidirectional);
  EXPECT_EQ(index.Class(index.IndexOf(2, 1)), ArcClass::kBidirectional);
  EXPECT_EQ(index.Class(index.IndexOf(2, 3)), ArcClass::kUndirected);
  EXPECT_EQ(index.Class(index.IndexOf(3, 2)), ArcClass::kUndirected);
}

TEST(TieIndexTest, LabelsMatchPreprocessing) {
  // Algorithm 1, lines 2–5: (u,v) in E_d gets label 1, the added (v,u)
  // gets label 0.
  const auto net = SmallMixed();
  const TieIndex index(net);
  EXPECT_TRUE(index.IsLabeled(index.IndexOf(0, 1)));
  EXPECT_DOUBLE_EQ(index.Label(index.IndexOf(0, 1)), 1.0);
  EXPECT_DOUBLE_EQ(index.Label(index.IndexOf(1, 0)), 0.0);
  EXPECT_FALSE(index.IsLabeled(index.IndexOf(1, 2)));
  EXPECT_FALSE(index.IsLabeled(index.IndexOf(2, 3)));
}

TEST(TieIndexTest, IndexAndReverseRoundTrip) {
  const auto net = SmallMixed();
  const TieIndex index(net);
  for (size_t e = 0; e < index.num_arcs(); ++e) {
    const auto [u, v] = index.ArcAt(e);
    EXPECT_EQ(index.IndexOf(u, v), e);
    const size_t r = index.ReverseOf(e);
    EXPECT_EQ(index.ArcAt(r), (std::pair<NodeId, NodeId>{v, u}));
    EXPECT_EQ(index.ReverseOf(r), e);
  }
}

TEST(TieIndexTest, TryIndexOfMissingPair) {
  const auto net = SmallMixed();
  const TieIndex index(net);
  EXPECT_EQ(index.TryIndexOf(0, 3), index.num_arcs());
  EXPECT_EQ(index.TryIndexOf(0, 2), index.num_arcs());
}

TEST(TieIndexTest, TieDegreeOverClosure) {
  const auto net = SmallMixed();
  const TieIndex index(net);
  // Arc (0,1): node 1's closure neighbors are {0, 2}; excluding the return
  // arc leaves 1 connected tie.
  EXPECT_EQ(index.TieDegree(index.IndexOf(0, 1)), 1u);
  // Arc (1,2): node 2's neighbors {1, 3}; one connected tie.
  EXPECT_EQ(index.TieDegree(index.IndexOf(1, 2)), 1u);
  // Arc (2,3): node 3's only neighbor is 2; zero connected ties.
  EXPECT_EQ(index.TieDegree(index.IndexOf(2, 3)), 0u);
}

TEST(TieIndexTest, ConnectedPairCountMatchesDegreeSum) {
  data::GeneratorConfig config;
  config.num_nodes = 300;
  config.ties_per_node = 4.0;
  config.seed = 3;
  const auto net = data::GenerateStatusNetwork(config);
  const TieIndex index(net);
  uint64_t total = 0;
  for (size_t e = 0; e < index.num_arcs(); ++e) total += index.TieDegree(e);
  EXPECT_EQ(index.NumConnectedTiePairs(), total);
  EXPECT_GT(total, 0u);
}

TEST(TieIndexTest, SampleConnectedTieValidAndCovering) {
  const auto net = SmallMixed();
  const TieIndex index(net);
  util::Rng rng(5);

  // Leaf destination: no connected tie.
  EXPECT_EQ(index.SampleConnectedTie(index.IndexOf(2, 3), rng),
            index.num_arcs());

  // Arc (3,2): node 2's neighbors {1, 3}; skipping the return to 3 leaves
  // exactly the arc (2,1).
  const size_t sampled = index.SampleConnectedTie(index.IndexOf(3, 2), rng);
  EXPECT_EQ(index.ArcAt(sampled), (std::pair<NodeId, NodeId>{2, 1}));
}

TEST(TieIndexTest, SampleConnectedTieUniformOverCandidates) {
  // Star closure: arc (leaf, center) has center_degree-1 connected ties;
  // sampling must cover all of them roughly uniformly.
  GraphBuilder builder(6);
  for (NodeId leaf = 1; leaf <= 5; ++leaf) {
    ASSERT_TRUE(builder.AddTie(0, leaf, TieType::kDirected).ok());
  }
  const auto net = std::move(builder).Build();
  const TieIndex index(net);
  const size_t arc = index.IndexOf(1, 0);
  util::Rng rng(7);
  std::map<size_t, int> counts;
  const int trials = 8000;
  for (int t = 0; t < trials; ++t) {
    const size_t s = index.SampleConnectedTie(arc, rng);
    ASSERT_LT(s, index.num_arcs());
    const auto [u, v] = index.ArcAt(s);
    EXPECT_EQ(u, 0u);
    EXPECT_NE(v, 1u);
    ++counts[s];
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [s, c] : counts) EXPECT_NEAR(c, trials / 4, trials / 20);
}

TEST(TieIndexTest, ClosureMatchesLineGraphOfSymmetrizedNetwork) {
  // Oracle: symmetrize a generated network (every tie bidirectional), whose
  // MixedSocialNetwork line graph must agree with the TieIndex counts.
  data::GeneratorConfig config;
  config.num_nodes = 120;
  config.ties_per_node = 3.0;
  config.seed = 9;
  const auto net = data::GenerateStatusNetwork(config);

  GraphBuilder sym_builder(net.num_nodes());
  for (graph::ArcId id = 0; id < net.num_arcs(); ++id) {
    const auto& arc = net.arc(id);
    if (arc.type != TieType::kDirected && arc.src > arc.dst) continue;
    ASSERT_TRUE(
        sym_builder.AddTie(arc.src, arc.dst, TieType::kBidirectional).ok());
  }
  const auto sym = std::move(sym_builder).Build();

  const TieIndex index(net);
  EXPECT_EQ(index.num_arcs(), sym.num_arcs());
  EXPECT_EQ(index.NumConnectedTiePairs(), graph::PredictLineGraphSize(sym));
  // The line graph has more edges than the network has arcs: the blow-up
  // that Sec. 4 cites against embedding the line graph directly.
  EXPECT_GT(index.NumConnectedTiePairs(), index.num_arcs());
}

}  // namespace
}  // namespace deepdirect::core
