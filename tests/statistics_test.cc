// Tests for network-level statistics.

#include <gtest/gtest.h>

#include "data/generators.h"
#include "graph/statistics.h"

namespace deepdirect::graph {
namespace {

TEST(ReciprocityTest, HandComputed) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(2, 3, TieType::kUndirected).ok());
  const auto net = std::move(builder).Build();
  // 1 directed arc + 2 reciprocated arcs -> 2/3.
  EXPECT_NEAR(Reciprocity(net), 2.0 / 3.0, 1e-12);
}

TEST(ReciprocityTest, AllDirectedIsZero) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  EXPECT_DOUBLE_EQ(Reciprocity(std::move(builder).Build()), 0.0);
}

TEST(ReciprocityTest, AllBidirectionalIsOne) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  EXPECT_DOUBLE_EQ(Reciprocity(std::move(builder).Build()), 1.0);
}

TEST(AssortativityTest, StarIsNegative) {
  // A star is maximally disassortative: hubs connect to leaves.
  GraphBuilder builder(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    ASSERT_TRUE(builder.AddTie(0, leaf, TieType::kUndirected).ok());
  }
  EXPECT_LT(DegreeAssortativity(std::move(builder).Build()), -0.9);
}

TEST(AssortativityTest, RegularGraphIsDegenerate) {
  // Cycle: all degrees equal -> zero variance -> defined as 0.
  GraphBuilder builder(5);
  for (NodeId u = 0; u < 5; ++u) {
    ASSERT_TRUE(
        builder.AddTie(u, (u + 1) % 5, TieType::kUndirected).ok());
  }
  EXPECT_DOUBLE_EQ(DegreeAssortativity(std::move(builder).Build()), 0.0);
}

TEST(AssortativityTest, PreferentialAttachmentIsDisassortative) {
  data::GeneratorConfig gen;
  gen.num_nodes = 500;
  gen.ties_per_node = 4.0;
  gen.seed = 3;
  const auto net = data::GenerateStatusNetwork(gen);
  EXPECT_LT(DegreeAssortativity(net), 0.05);
}

TEST(PathLengthTest, PathGraphExact) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kUndirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kUndirected).ok());
  ASSERT_TRUE(builder.AddTie(2, 3, TieType::kUndirected).ok());
  const auto net = std::move(builder).Build();
  util::Rng rng(5);
  // Exact (all sources): mean distance of P4 = (2*(1+2+3) + 2*(1+2) + ... )
  // ordered pairs: distances {1:6, 2:4, 3:2} -> (6 + 8 + 6) / 12 = 5/3.
  EXPECT_NEAR(AveragePathLengthSampled(net, 4, rng), 5.0 / 3.0, 1e-12);
}

TEST(PathLengthTest, SmallWorldDatasets) {
  data::GeneratorConfig gen;
  gen.num_nodes = 600;
  gen.ties_per_node = 5.0;
  gen.seed = 7;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(9);
  const double apl = AveragePathLengthSampled(net, 32, rng);
  EXPECT_GT(apl, 1.5);
  EXPECT_LT(apl, 8.0);  // small world
}

}  // namespace
}  // namespace deepdirect::graph
