// LINE-based directionality model: the node-embedding baseline of Sec. 6.1.
//
// Trains LINE node embeddings on the mixed network, represents each tie
// (u, v) by an edge-operator composition of the endpoint vectors
// (concatenation by default, matching the paper), and fits a logistic
// regression on the labeled directed ties.

#ifndef DEEPDIRECT_CORE_LINE_MODEL_H_
#define DEEPDIRECT_CORE_LINE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/directionality.h"
#include "embedding/edge_features.h"
#include "embedding/line.h"
#include "graph/mixed_graph.h"
#include "ml/logistic_regression.h"

namespace deepdirect::core {

/// LINE-model hyper-parameters. The paper sets LINE's node dimension to 64
/// (half of DeepDirect's l = 128) so the concatenated tie vector matches.
struct LineModelConfig {
  embedding::LineConfig line;
  embedding::EdgeOperator edge_operator =
      embedding::EdgeOperator::kConcatenate;
  ml::LogisticRegressionConfig regression = {
      .epochs = 20, .learning_rate = 0.05, .min_lr_fraction = 0.1,
      .l2 = 1e-4, .seed = 27, .shuffle = true, .checkpoint = {}};
};

/// Trained LINE + logistic-regression directionality model.
class LineModel : public DirectionalityModel {
 public:
  static std::unique_ptr<LineModel> Train(const graph::MixedSocialNetwork& g,
                                          const LineModelConfig& config);

  double Directionality(graph::NodeId u, graph::NodeId v) const override;
  std::string name() const override { return "LINE"; }

  /// Underlying node embeddings (for the Fig. 7 visualization bench).
  const embedding::LineEmbedding& node_embeddings() const { return line_; }

  /// Composes the tie feature vector for (u, v) into `out`.
  void TieFeatures(graph::NodeId u, graph::NodeId v,
                   std::span<double> out) const;

  /// Dimensionality of a tie feature vector.
  size_t tie_feature_dims() const {
    return embedding::EdgeFeatureDims(edge_operator_, line_.dimensions());
  }

 private:
  LineModel(embedding::LineEmbedding line, embedding::EdgeOperator op,
            size_t feature_dims)
      : line_(std::move(line)),
        edge_operator_(op),
        regression_(feature_dims) {}

  embedding::LineEmbedding line_;
  embedding::EdgeOperator edge_operator_;
  ml::LogisticRegression regression_;
};

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_LINE_MODEL_H_
