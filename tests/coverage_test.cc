// Cross-cutting coverage: behaviours exercised nowhere else — metric
// invariances, generator bias properties, config-bundle defaults, and
// assorted edge cases.

#include <gtest/gtest.h>

#include <cmath>

#include "core/grid_search.h"
#include "core/models.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "ml/metrics.h"
#include "ml/tsne.h"
#include "util/random.h"

namespace deepdirect {
namespace {

using graph::GraphBuilder;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

TEST(MetricsInvarianceTest, AucInvariantUnderMonotoneTransforms) {
  util::Rng rng(3);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    scores.push_back(rng.NextDouble());
    labels.push_back(rng.NextBool(0.4) ? 1 : 0);
  }
  const double base = ml::AreaUnderRoc(scores, labels);
  std::vector<double> squashed(scores.size()), shifted(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    squashed[i] = 1.0 / (1.0 + std::exp(-5.0 * scores[i]));
    shifted[i] = 100.0 * scores[i] - 7.0;
  }
  EXPECT_DOUBLE_EQ(ml::AreaUnderRoc(squashed, labels), base);
  EXPECT_DOUBLE_EQ(ml::AreaUnderRoc(shifted, labels), base);
}

TEST(MetricsInvarianceTest, AucComplementsUnderLabelFlip) {
  const std::vector<double> scores{0.1, 0.7, 0.4, 0.9, 0.2};
  const std::vector<int> labels{0, 1, 0, 1, 1};
  std::vector<int> flipped;
  for (int y : labels) flipped.push_back(1 - y);
  EXPECT_NEAR(ml::AreaUnderRoc(scores, labels) +
                  ml::AreaUnderRoc(scores, flipped),
              1.0, 1e-12);
}

TEST(TsnePerplexityTest, RealizedEntropyMatchesTarget) {
  // The per-point bandwidth search must hit the requested perplexity
  // (entropy = log perplexity) on a generic distance matrix.
  util::Rng rng(5);
  const size_t n = 30;
  ml::Matrix points(n, 4);
  points.FillUniform(rng, -1.0f, 1.0f);
  std::vector<double> d2(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < 4; ++k) {
        const double delta = points.At(i, k) - points.At(j, k);
        acc += delta * delta;
      }
      d2[i * n + j] = acc;
    }
  }
  const double perplexity = 8.0;
  const auto joint = ml::TsneJointProbabilities(d2, n, perplexity);
  // Row entropies of the re-conditioned joint won't be exact, but the
  // effective neighborhood size must be in the right ballpark for most
  // points: 2^H(row) within [perplexity/2, perplexity*2].
  size_t in_range = 0;
  for (size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < n; ++j) row_sum += joint[i * n + j];
    double entropy = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double p = joint[i * n + j] / row_sum;
      if (p > 1e-15) entropy -= p * std::log2(p);
    }
    const double effective = std::pow(2.0, entropy);
    if (effective > perplexity / 2 && effective < perplexity * 2) {
      ++in_range;
    }
  }
  EXPECT_GT(in_range, n * 3 / 4);
}

TEST(GeneratorBiasTest, DirectedClosureBiasPointsUpStatus) {
  // With high bias, the triadic-closure candidate filter prefers
  // status-increasing hops; the resulting network must show more
  // "low-to-high status" wedges than an unbiased one.
  auto wedge_up_rate = [](double bias) {
    data::GeneratorConfig config;
    config.num_nodes = 500;
    config.ties_per_node = 5.0;
    config.triangle_closure_prob = 0.5;
    config.directed_closure_bias = bias;
    config.direction_noise = 0.0;
    config.seed = 7;
    const auto net = data::GenerateStatusNetwork(config);
    const auto status = data::GeneratorStatuses(config);
    // Over closed triangles, count wedges whose apex has middling status.
    size_t up = 0, total = 0;
    for (NodeId u = 0; u < net.num_nodes(); ++u) {
      for (NodeId v : net.UndirectedNeighbors(u)) {
        if (v <= u) continue;
        for (NodeId w : net.CommonNeighbors(u, v)) {
          if (w <= v) continue;
          // Triangle {u, v, w}: monotone status chains count as "up".
          double lo = std::min({status[u], status[v], status[w]});
          double hi = std::max({status[u], status[v], status[w]});
          up += (hi - lo) > 0.4;
          ++total;
        }
      }
    }
    return total == 0 ? 0.0 : static_cast<double>(up) / total;
  };
  // Higher bias stretches triangles across the status range.
  EXPECT_GT(wedge_up_rate(0.95), wedge_up_rate(0.5) - 0.05);
}

TEST(ModelFactoryTest, PaperDefaultsShapes) {
  const auto configs = core::MethodConfigs::PaperDefaults();
  EXPECT_EQ(configs.deepdirect.dimensions, 128u);
  EXPECT_EQ(configs.deepdirect.negative_samples, 5u);
  EXPECT_DOUBLE_EQ(configs.deepdirect.epochs, 10.0);
  // LINE gets half of DeepDirect's l so the concatenated tie vector
  // matches (Sec. 6.1).
  EXPECT_EQ(configs.line.line.dimensions, 64u);
  EXPECT_EQ(configs.redirect_n.dimensions, 40u);
}

TEST(DegreesTest, BidirectionalNetworkInOutEqual) {
  GraphBuilder builder(4);
  ASSERT_TRUE(builder.AddTie(0, 1, TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(2, 3, TieType::kBidirectional).ok());
  const auto net = std::move(builder).Build();
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    EXPECT_DOUBLE_EQ(net.DegOut(u), net.DegIn(u));
    EXPECT_DOUBLE_EQ(net.Deg(u), 2.0 * net.UndirectedDegree(u));
  }
}

TEST(HideDirectionsTest, DeterministicForSeed) {
  data::GeneratorConfig gen;
  gen.num_nodes = 200;
  gen.seed = 11;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng_a(13), rng_b(13);
  const auto a = graph::HideDirections(net, 0.4, rng_a);
  const auto b = graph::HideDirections(net, 0.4, rng_b);
  ASSERT_EQ(a.hidden_true_arcs.size(), b.hidden_true_arcs.size());
  for (size_t i = 0; i < a.hidden_true_arcs.size(); ++i) {
    EXPECT_EQ(a.hidden_true_arcs[i], b.hidden_true_arcs[i]);
  }
}

TEST(GridSearchShapeTest, CellsAreRowMajorOverAlphaBeta) {
  data::GeneratorConfig gen;
  gen.num_nodes = 150;
  gen.seed = 17;
  const auto net = data::GenerateStatusNetwork(gen);
  core::GridSearchConfig config;
  config.alphas = {0.0, 2.0};
  config.betas = {0.5, 1.5};
  config.base.dimensions = 8;
  config.base.epochs = 1.0;
  const auto result = core::GridSearchDeepDirect(net, config);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_DOUBLE_EQ(result.cells[0].alpha, 0.0);
  EXPECT_DOUBLE_EQ(result.cells[0].beta, 0.5);
  EXPECT_DOUBLE_EQ(result.cells[1].alpha, 0.0);
  EXPECT_DOUBLE_EQ(result.cells[1].beta, 1.5);
  EXPECT_DOUBLE_EQ(result.cells[3].alpha, 2.0);
  EXPECT_DOUBLE_EQ(result.cells[3].beta, 1.5);
}

}  // namespace
}  // namespace deepdirect
