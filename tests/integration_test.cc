// End-to-end integration tests: full experimental pipelines across modules,
// including the paper's headline qualitative claims at test-scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/models.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "graph/graph_io.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "util/timer.h"

namespace deepdirect {
namespace {

using core::Method;

TEST(IntegrationTest, FullPipelineOnMiniDataset) {
  // Generate -> hide -> train all five methods -> evaluate. Everything must
  // beat chance and DeepDirect must be competitive with the best baseline.
  const auto net = data::MakeDataset(data::DatasetId::kTwitter, /*scale=*/0.4);
  util::Rng rng(55);
  const auto split = graph::HideDirections(net, 0.3, rng);

  auto configs = core::MethodConfigs::FastDefaults();
  configs.deepdirect.dimensions = 32;
  configs.deepdirect.epochs = 3.0;
  configs.line.line.samples_per_arc = 15;

  std::map<Method, double> accuracy;
  for (Method method : core::AllMethods()) {
    const auto model = core::TrainMethod(split.network, method, configs);
    accuracy[method] = core::DirectionDiscoveryAccuracy(split, *model);
    EXPECT_GT(accuracy[method], 0.52) << core::MethodName(method);
  }
  double best_baseline = 0.0;
  for (const auto& [method, acc] : accuracy) {
    if (method != Method::kDeepDirect) {
      best_baseline = std::max(best_baseline, acc);
    }
  }
  EXPECT_GT(accuracy[Method::kDeepDirect], best_baseline - 0.05);
}

TEST(IntegrationTest, QuantificationImprovesLinkPrediction) {
  // Sec. 6.3 headline: the directionality adjacency matrix should not hurt
  // (and typically helps) Jaccard link prediction on a bidirectional-heavy
  // network.
  const auto net =
      data::MakeDataset(data::DatasetId::kSlashdot, /*scale=*/0.5);
  core::LinkPredictionConfig link_config;
  link_config.holdout_fraction = 0.2;
  link_config.seed = 97;
  util::Rng rng(link_config.seed);
  const auto holdout = graph::HoldOutTies(net, 0.2, rng);

  const auto baseline =
      core::RunLinkPrediction(holdout, nullptr, link_config);

  core::DeepDirectConfig dd;
  dd.dimensions = 32;
  dd.epochs = 3.0;
  const auto model = core::DeepDirectModel::Train(holdout.network, dd);
  const auto quantified =
      core::RunLinkPrediction(holdout, model.get(), link_config);

  EXPECT_GT(baseline.auc, 0.55);
  EXPECT_GT(quantified.auc, baseline.auc - 0.03);
}

TEST(IntegrationTest, SaveLoadTrainRoundTrip) {
  // Serialization composes with training: identical accuracy either way.
  const auto net = data::MakeDataset(data::DatasetId::kEpinions, 0.3);
  util::Rng rng(7);
  const auto split = graph::HideDirections(net, 0.4, rng);

  const std::string path = "/tmp/deepdirect_integration.edges";
  ASSERT_TRUE(graph::SaveEdgeList(split.network, path).ok());
  auto loaded = graph::LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  core::DeepDirectConfig config;
  config.dimensions = 32;
  config.epochs = 2.0;
  const auto a = core::DeepDirectModel::Train(split.network, config);
  const auto b = core::DeepDirectModel::Train(loaded.value(), config);
  EXPECT_DOUBLE_EQ(core::DirectionDiscoveryAccuracy(split, *a),
                   core::DirectionDiscoveryAccuracy(split, *b));
}

TEST(IntegrationTest, MlpDStepExtension) {
  // Future-work extension (Sec. 8): a nonlinear MLP head on the DeepDirect
  // embedding must at least roughly match the linear head.
  const auto net = data::MakeDataset(data::DatasetId::kTencent, 0.4);
  util::Rng rng(31);
  const auto split = graph::HideDirections(net, 0.3, rng);

  core::DeepDirectConfig config;
  config.dimensions = 32;
  config.epochs = 3.0;
  const auto model = core::DeepDirectModel::Train(split.network, config);
  const double linear_accuracy =
      core::DirectionDiscoveryAccuracy(split, *model);

  // Train an MLP head on the same labeled embedding rows.
  const auto& index = model->index();
  ml::Dataset data(config.dimensions);
  std::vector<double> features(config.dimensions);
  for (size_t e = 0; e < index.num_arcs(); ++e) {
    if (!index.IsLabeled(e)) continue;
    const auto row = model->embeddings().Row(e);
    for (size_t k = 0; k < row.size(); ++k) features[k] = row[k];
    data.Add(features, index.Label(e));
  }
  ml::MlpClassifier mlp(config.dimensions, 16, 3);
  ml::MlpConfig mlp_config;
  mlp_config.epochs = 30;
  mlp.Train(data, mlp_config);

  size_t correct = 0;
  for (graph::ArcId id : split.hidden_true_arcs) {
    const auto& arc = split.network.arc(id);
    auto embed = [&](graph::NodeId x, graph::NodeId y) {
      const auto row = model->TieEmbedding(x, y);
      std::vector<double> f(row.size());
      for (size_t k = 0; k < row.size(); ++k) f[k] = row[k];
      return mlp.Predict(f);
    };
    correct += embed(arc.src, arc.dst) >= embed(arc.dst, arc.src);
  }
  const double mlp_accuracy =
      static_cast<double>(correct) / split.hidden_true_arcs.size();
  EXPECT_GT(mlp_accuracy, linear_accuracy - 0.08);
  EXPECT_GT(mlp_accuracy, 0.55);
}

TEST(IntegrationTest, VisualizationPipelineShape) {
  // The Fig. 7 protocol end-to-end at tiny scale: extract core, hide,
  // embed, check embedding rows exist for every hidden tie.
  const auto net = data::MakeDataset(data::DatasetId::kSlashdot, 0.4);
  const auto core_net = graph::TopDegreeSubnetwork(net, 0.3);
  util::Rng rng(301);
  const auto split = graph::HideDirections(core_net, 0.1, rng);
  ASSERT_GT(split.hidden_true_arcs.size(), 10u);

  core::DeepDirectConfig config;
  config.dimensions = 16;
  config.epochs = 2.0;
  const auto model = core::DeepDirectModel::Train(split.network, config);
  for (graph::ArcId id : split.hidden_true_arcs) {
    const auto& arc = split.network.arc(id);
    const auto row = model->TieEmbedding(arc.src, arc.dst);
    EXPECT_EQ(row.size(), 16u);
  }
}

TEST(IntegrationTest, ScalabilityIsRoughlyLinear) {
  // Fig. 9 at test scale: doubling |E| should not quadruple training time.
  // Generous bound to stay robust on loaded CI machines.
  util::Timer timer;
  core::DeepDirectConfig config;
  config.dimensions = 16;
  config.epochs = 2.0;

  const auto small = data::MakeDataset(data::DatasetId::kTencent, 0.3);
  timer.Reset();
  core::DeepDirectModel::Train(small, config);
  const double t_small = timer.ElapsedSeconds();

  const auto large = data::MakeDataset(data::DatasetId::kTencent, 0.6);
  timer.Reset();
  core::DeepDirectModel::Train(large, config);
  const double t_large = timer.ElapsedSeconds();

  const double size_ratio = static_cast<double>(large.num_ties()) /
                            static_cast<double>(small.num_ties());
  EXPECT_LT(t_large, t_small * size_ratio * 3.0 + 0.5);
}

}  // namespace
}  // namespace deepdirect
