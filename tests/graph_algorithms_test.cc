// Unit tests for BFS, connected components, and the experimental transforms
// (HideDirections, TopDegreeSubnetwork, HoldOutTies).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "data/generators.h"
#include "graph/algorithms.h"

namespace deepdirect::graph {
namespace {

// Path 0-1-2-3 (undirected) plus isolated node 4.
MixedSocialNetwork PathNetwork() {
  GraphBuilder builder(5);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kUndirected).ok());
  EXPECT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  EXPECT_TRUE(builder.AddTie(2, 3, TieType::kBidirectional).ok());
  return std::move(builder).Build();
}

TEST(BfsTest, DistancesOnPath) {
  const auto net = PathNetwork();
  const auto dist = BfsDistances(net, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST(BfsTest, DirectionIgnoredForDistance) {
  // The directed tie 1->2 must be traversable both ways (paper Sec. 3.1:
  // undirected view for shortest paths).
  const auto net = PathNetwork();
  const auto dist = BfsDistances(net, 3);
  EXPECT_EQ(dist[0], 3u);
}

TEST(ConnectedComponentsTest, CountsAndLabels) {
  const auto net = PathNetwork();
  size_t count = 0;
  const auto labels = ConnectedComponents(net, &count);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(labels[0], labels[3]);
  EXPECT_NE(labels[0], labels[4]);
}

TEST(HideDirectionsTest, KeepsRequestedFraction) {
  data::GeneratorConfig config;
  config.num_nodes = 300;
  config.ties_per_node = 4.0;
  config.bidirectional_fraction = 0.3;
  config.seed = 9;
  const auto net = data::GenerateStatusNetwork(config);
  const size_t directed_before = net.num_directed_ties();

  util::Rng rng(11);
  const auto split = HideDirections(net, 0.25, rng);
  const size_t expected_kept = static_cast<size_t>(0.25 * directed_before);
  EXPECT_EQ(split.network.num_directed_ties(), expected_kept);
  EXPECT_EQ(split.network.num_undirected_ties(),
            directed_before - expected_kept);
  EXPECT_EQ(split.hidden_true_arcs.size(), directed_before - expected_kept);
  // Bidirectional ties untouched.
  EXPECT_EQ(split.network.num_bidirectional_ties(),
            net.num_bidirectional_ties());
  // Total ties preserved.
  EXPECT_EQ(split.network.num_ties(), net.num_ties());
}

TEST(HideDirectionsTest, TrueLabelsConsistent) {
  data::GeneratorConfig config;
  config.num_nodes = 200;
  config.ties_per_node = 3.0;
  config.seed = 13;
  const auto net = data::GenerateStatusNetwork(config);
  util::Rng rng(17);
  const auto split = HideDirections(net, 0.5, rng);

  for (ArcId true_arc : split.hidden_true_arcs) {
    const Arc& arc = split.network.arc(true_arc);
    EXPECT_EQ(arc.type, TieType::kUndirected);
    EXPECT_DOUBLE_EQ(split.true_label[true_arc], 1.0);
    const ArcId reverse = split.network.FindArc(arc.dst, arc.src);
    ASSERT_NE(reverse, kInvalidArc);
    EXPECT_DOUBLE_EQ(split.true_label[reverse], 0.0);
    // The original network contains this exact directed arc.
    const ArcId original = net.FindArc(arc.src, arc.dst);
    ASSERT_NE(original, kInvalidArc);
    EXPECT_EQ(net.arc(original).type, TieType::kDirected);
  }
}

TEST(HideDirectionsTest, ExtremeFractions) {
  data::GeneratorConfig config;
  config.num_nodes = 100;
  config.ties_per_node = 3.0;
  config.seed = 19;
  const auto net = data::GenerateStatusNetwork(config);
  util::Rng rng(23);

  // Fraction 1.0: nothing hidden.
  const auto all = HideDirections(net, 1.0, rng);
  EXPECT_EQ(all.network.num_directed_ties(), net.num_directed_ties());
  EXPECT_TRUE(all.hidden_true_arcs.empty());

  // Fraction 0.0: the TDL problem requires |E_d| > 0, so one tie stays.
  const auto none = HideDirections(net, 0.0, rng);
  EXPECT_EQ(none.network.num_directed_ties(), 1u);
}

TEST(TopDegreeSubnetworkTest, SelectsHighDegreeCore) {
  data::GeneratorConfig config;
  config.num_nodes = 400;
  config.ties_per_node = 4.0;
  config.seed = 31;
  const auto net = data::GenerateStatusNetwork(config);
  const auto core = TopDegreeSubnetwork(net, 0.1);
  EXPECT_LE(core.num_nodes(), static_cast<size_t>(0.1 * net.num_nodes()));
  EXPECT_GT(core.num_ties(), 0u);
  // The kept nodes are the high-degree nodes of the original network:
  // the minimum original degree among kept nodes must be at least the
  // median original degree.
  std::vector<double> degrees(net.num_nodes());
  for (NodeId u = 0; u < net.num_nodes(); ++u) degrees[u] = net.Deg(u);
  std::vector<double> sorted = degrees;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  // Map core node ids back by degree ranking: every kept node came from the
  // top `fraction`, so the *average* original degree of the top 10% nodes
  // must exceed twice the median in a preferential-attachment network.
  double top_mean = 0.0;
  const size_t k = std::max<size_t>(1, net.num_nodes() / 10);
  for (size_t i = 0; i < k; ++i) top_mean += sorted[sorted.size() - 1 - i];
  top_mean /= static_cast<double>(k);
  EXPECT_GT(top_mean, 2.0 * median);
}

TEST(HoldOutTiesTest, SplitsTies) {
  data::GeneratorConfig config;
  config.num_nodes = 300;
  config.ties_per_node = 4.0;
  config.seed = 37;
  const auto net = data::GenerateStatusNetwork(config);
  util::Rng rng(41);
  const auto holdout = HoldOutTies(net, 0.2, rng);
  EXPECT_EQ(holdout.removed_ties.size(),
            static_cast<size_t>(0.2 * net.num_ties()));
  EXPECT_EQ(holdout.network.num_ties() + holdout.removed_ties.size(),
            net.num_ties());
  EXPECT_EQ(holdout.network.num_nodes(), net.num_nodes());
  // Removed ties are absent from the reduced network and present in the
  // original.
  for (const Arc& removed : holdout.removed_ties) {
    EXPECT_FALSE(holdout.network.HasArc(removed.src, removed.dst));
    EXPECT_TRUE(net.HasArc(removed.src, removed.dst));
  }
}

TEST(HoldOutTiesTest, ZeroFractionRemovesNothing) {
  const auto net = PathNetwork();
  util::Rng rng(43);
  const auto holdout = HoldOutTies(net, 0.0, rng);
  EXPECT_TRUE(holdout.removed_ties.empty());
  EXPECT_EQ(holdout.network.num_ties(), net.num_ties());
}

}  // namespace
}  // namespace deepdirect::graph
