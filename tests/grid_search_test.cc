// Tests for the cross-validated (α, β) grid search (Sec. 6.1 protocol) and
// the line-graph embedding model.

#include <gtest/gtest.h>

#include "core/applications.h"
#include "core/grid_search.h"
#include "data/generators.h"
#include "graph/algorithms.h"

namespace deepdirect::core {
namespace {

graph::MixedSocialNetwork EasyNetwork(uint64_t seed = 5) {
  data::GeneratorConfig gen;
  gen.num_nodes = 300;
  gen.ties_per_node = 4.0;
  gen.direction_noise = 0.05;
  gen.status_noise = 0.1;
  gen.seed = seed;
  return data::GenerateStatusNetwork(gen);
}

GridSearchConfig SmallGrid() {
  GridSearchConfig config;
  config.alphas = {0.0, 5.0};
  config.betas = {0.0, 1.0};
  config.base.dimensions = 16;
  config.base.epochs = 2.0;
  return config;
}

TEST(GridSearchTest, EvaluatesEveryCell) {
  const auto net = EasyNetwork();
  const auto result = GridSearchDeepDirect(net, SmallGrid());
  EXPECT_EQ(result.cells.size(), 4u);
  for (const auto& cell : result.cells) {
    EXPECT_GE(cell.validation_accuracy, 0.0);
    EXPECT_LE(cell.validation_accuracy, 1.0);
  }
}

TEST(GridSearchTest, BestIsArgmaxOfCells) {
  const auto net = EasyNetwork();
  const auto result = GridSearchDeepDirect(net, SmallGrid());
  double best = -1.0;
  for (const auto& cell : result.cells) {
    best = std::max(best, cell.validation_accuracy);
  }
  EXPECT_DOUBLE_EQ(result.best.validation_accuracy, best);
  bool found = false;
  for (const auto& cell : result.cells) {
    found |= cell.alpha == result.best.alpha &&
             cell.beta == result.best.beta &&
             cell.validation_accuracy == result.best.validation_accuracy;
  }
  EXPECT_TRUE(found);
}

TEST(GridSearchTest, DeterministicForConfig) {
  const auto net = EasyNetwork();
  const auto a = GridSearchDeepDirect(net, SmallGrid());
  const auto b = GridSearchDeepDirect(net, SmallGrid());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].validation_accuracy, b.cells[i].validation_accuracy);
  }
}

TEST(GridSearchTest, MultipleFoldsAverage) {
  const auto net = EasyNetwork();
  auto config = SmallGrid();
  config.alphas = {5.0};
  config.betas = {1.0};
  config.folds = 2;
  const auto result = GridSearchDeepDirect(net, config);
  EXPECT_EQ(result.cells.size(), 1u);
  EXPECT_GT(result.best.validation_accuracy, 0.5);
}

TEST(GridSearchTest, SelectedCellGeneralizesAboveChance) {
  const auto net = EasyNetwork();
  const auto search = GridSearchDeepDirect(net, SmallGrid());
  // Retrain at the selected cell on a fresh test split.
  util::Rng rng(909);
  const auto split = graph::HideDirections(net, 0.5, rng);
  auto config = SmallGrid().base;
  config.alpha = search.best.alpha;
  config.beta = search.best.beta;
  const auto model = DeepDirectModel::Train(split.network, config);
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.55);
}

}  // namespace
}  // namespace deepdirect::core
