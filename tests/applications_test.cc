// Tests for the two applications (Sec. 5): direction discovery and
// direction quantification / link prediction.

#include <gtest/gtest.h>

#include <cmath>

#include "core/applications.h"
#include "data/generators.h"
#include "graph/algorithms.h"

namespace deepdirect::core {
namespace {

using graph::Arc;
using graph::ArcId;
using graph::GraphBuilder;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

// A directionality model driven by a per-node score: d(u, v) =
// sigmoid(score(v) - score(u)). A perfect oracle for status networks.
class ScoreModel : public DirectionalityModel {
 public:
  explicit ScoreModel(std::vector<double> scores)
      : scores_(std::move(scores)) {}
  double Directionality(NodeId u, NodeId v) const override {
    const double z = scores_[v] - scores_[u];
    return 1.0 / (1.0 + std::exp(-z));
  }
  std::string name() const override { return "ScoreModel"; }

 private:
  std::vector<double> scores_;
};

TEST(DiscoverDirectionsTest, OraclePredictsPerfectly) {
  data::GeneratorConfig gen;
  gen.num_nodes = 300;
  gen.ties_per_node = 4.0;
  gen.direction_noise = 0.0;  // directions exactly follow status
  gen.seed = 3;
  const auto net = data::GenerateStatusNetwork(gen);
  const auto statuses = data::GeneratorStatuses(gen);
  util::Rng rng(5);
  const auto split = graph::HideDirections(net, 0.5, rng);

  const ScoreModel oracle(statuses);
  EXPECT_DOUBLE_EQ(DirectionDiscoveryAccuracy(split, oracle), 1.0);

  // The inverted oracle gets ~everything wrong (ties broken toward the
  // forward direction can only help marginally).
  std::vector<double> inverted(statuses.size());
  for (size_t i = 0; i < statuses.size(); ++i) inverted[i] = -statuses[i];
  const ScoreModel anti(inverted);
  EXPECT_LT(DirectionDiscoveryAccuracy(split, anti), 0.05);
}

TEST(DiscoverDirectionsTest, EnumeratesEachUndirectedTieOnce) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kUndirected).ok());
  ASSERT_TRUE(builder.AddTie(2, 3, TieType::kUndirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  const auto net = std::move(builder).Build();
  const ScoreModel model({0.0, 1.0, 2.0, 3.0});
  const auto predictions = DiscoverDirections(net, model);
  ASSERT_EQ(predictions.size(), 2u);
  // Higher-score node is always the predicted responder.
  EXPECT_EQ(predictions[0].source, 0u);
  EXPECT_EQ(predictions[0].target, 1u);
  EXPECT_EQ(predictions[1].source, 2u);
  EXPECT_EQ(predictions[1].target, 3u);
  for (const auto& p : predictions) EXPECT_GE(p.confidence, 0.5);
}

TEST(WeightedAdjacencyTest, BinaryMatrixSums) {
  // 0->1 directed, 1-2 bidirectional, 2-3 undirected; no model.
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(2, 3, TieType::kUndirected).ok());
  const auto net = std::move(builder).Build();
  const WeightedAdjacency adjacency(net, nullptr);

  EXPECT_DOUBLE_EQ(adjacency.OutSum(0), 1.0);   // 0->1
  EXPECT_DOUBLE_EQ(adjacency.InSum(0), 0.0);
  EXPECT_DOUBLE_EQ(adjacency.OutSum(1), 1.0);   // 1->2 (bidir)
  EXPECT_DOUBLE_EQ(adjacency.InSum(1), 2.0);    // 0->1 and 2->1
  EXPECT_DOUBLE_EQ(adjacency.OutSum(2), 1.5);   // 2->1 (1) + 2-3 (0.5)
  EXPECT_DOUBLE_EQ(adjacency.InSum(3), 0.5);
}

TEST(WeightedAdjacencyTest, PathWeightAndJaccard) {
  // 0->1->2 with unit weights: PathWeight(0,2) = 1.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  const auto net = std::move(builder).Build();
  const WeightedAdjacency adjacency(net, nullptr);
  EXPECT_DOUBLE_EQ(adjacency.PathWeight(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(adjacency.PathWeight(2, 0), 0.0);
  // Eq. 29: f(0->2) = 1 / (OutSum(0) + InSum(2)) = 1/2.
  EXPECT_DOUBLE_EQ(adjacency.JaccardScore(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(adjacency.JaccardScore(2, 0), 0.0);
}

TEST(WeightedAdjacencyTest, ModelQuantifiesBidirectionalCells) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  const auto net = std::move(builder).Build();
  const ScoreModel model({0.0, 1.0, 2.0});
  const WeightedAdjacency adjacency(net, &model);
  // OutSum(0) = d(0,1) = sigmoid(1).
  EXPECT_NEAR(adjacency.OutSum(0), 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
  // PathWeight(0,2) = d(0,1)*d(1,2).
  const double d01 = model.Directionality(0, 1);
  const double d12 = model.Directionality(1, 2);
  EXPECT_NEAR(adjacency.PathWeight(0, 2), d01 * d12, 1e-12);
}

TEST(LinkScoreTest, FamilyOnHandBuiltPath) {
  // 0->1->2 with unit weights.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kDirected).ok());
  const auto net = std::move(builder).Build();
  const WeightedAdjacency adjacency(net, nullptr);

  // Eq. 29's numerator and score over the one path 0 -> 1 -> 2.
  EXPECT_DOUBLE_EQ(adjacency.PathWeight(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(adjacency.JaccardScore(0, 2), 0.5);
  // No reverse path.
  EXPECT_DOUBLE_EQ(adjacency.PathWeight(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(adjacency.JaccardScore(2, 0), 0.0);
}

TEST(LinkPredictionTest, OrderedProtocolRewardsDirectionality) {
  // With directed closure in the generator, the status oracle's quantified
  // matrix must beat the binary matrix under the ordered protocol.
  data::GeneratorConfig gen;
  gen.num_nodes = 600;
  gen.ties_per_node = 6.0;
  gen.bidirectional_fraction = 0.5;
  gen.triangle_closure_prob = 0.3;
  gen.directed_closure_bias = 0.8;
  gen.direction_noise = 0.05;
  gen.seed = 29;
  const auto net = data::GenerateStatusNetwork(gen);
  const auto statuses = data::GeneratorStatuses(gen);

  LinkPredictionConfig config;
  config.seed = 31;
  util::Rng rng(config.seed);
  const auto holdout = graph::HoldOutTies(net, 0.2, rng);

  const auto binary = RunLinkPrediction(holdout, nullptr, config);
  const ScoreModel oracle(statuses);
  const auto quantified = RunLinkPrediction(holdout, &oracle, config);
  EXPECT_GT(quantified.auc, binary.auc);
}

TEST(LinkPredictionTest, OracleQuantificationBeatsRandomScores) {
  data::GeneratorConfig gen;
  gen.num_nodes = 500;
  gen.ties_per_node = 5.0;
  gen.bidirectional_fraction = 0.6;
  gen.triangle_closure_prob = 0.4;
  gen.seed = 7;
  const auto net = data::GenerateStatusNetwork(gen);

  LinkPredictionConfig config;
  config.seed = 11;
  const double holdout_fraction = 0.2;
  util::Rng rng(config.seed);
  const auto holdout = graph::HoldOutTies(net, holdout_fraction, rng);

  const auto result = RunLinkPrediction(holdout, nullptr, config);
  // Jaccard on a clustered network must beat random ranking clearly.
  EXPECT_GT(result.auc, 0.55);
  EXPECT_GT(result.num_candidates, 100u);
  EXPECT_GT(result.num_positives, 10u);
}

TEST(LinkPredictionTest, DeterministicForFixedConfig) {
  data::GeneratorConfig gen;
  gen.num_nodes = 300;
  gen.ties_per_node = 4.0;
  gen.bidirectional_fraction = 0.5;
  gen.seed = 13;
  const auto net = data::GenerateStatusNetwork(gen);
  LinkPredictionConfig config;
  config.seed = 17;
  util::Rng rng1(config.seed), rng2(config.seed);
  const auto holdout1 = graph::HoldOutTies(net, 0.2, rng1);
  const auto holdout2 = graph::HoldOutTies(net, 0.2, rng2);
  const auto a = RunLinkPrediction(holdout1, nullptr, config);
  const auto b = RunLinkPrediction(holdout2, nullptr, config);
  EXPECT_EQ(a.auc, b.auc);
  EXPECT_EQ(a.num_candidates, b.num_candidates);
}

TEST(LinkPredictionTest, CandidateCapRetainsPositives) {
  data::GeneratorConfig gen;
  gen.num_nodes = 400;
  gen.ties_per_node = 5.0;
  gen.bidirectional_fraction = 0.5;
  gen.triangle_closure_prob = 0.3;
  gen.seed = 19;
  const auto net = data::GenerateStatusNetwork(gen);
  LinkPredictionConfig config;
  config.max_candidates = 500;  // force subsampling
  config.seed = 23;
  util::Rng rng(config.seed);
  const auto holdout = graph::HoldOutTies(net, 0.2, rng);
  const auto result = RunLinkPrediction(holdout, nullptr, config);
  // AUC remains estimable (both classes present).
  EXPECT_GT(result.auc, 0.0);
  EXPECT_LT(result.auc, 1.0);
}

}  // namespace
}  // namespace deepdirect::core
