// The two applications of the directionality function (Sec. 5) and their
// evaluation protocols (Secs. 6.2–6.3):
//
//  * Direction discovery on undirected ties: predict u → v iff
//    d(u, v) ≥ d(v, u) (Eq. 28); accuracy measured on ties whose true
//    direction was hidden.
//
//  * Direction quantification on bidirectional ties: replace the 1-entries
//    of bidirectional ties in the adjacency matrix with d values, producing
//    the *directionality adjacency matrix*, then evaluate Jaccard-style
//    link prediction (Eq. 29) by AUC over 2-hop candidate pairs.

#ifndef DEEPDIRECT_CORE_APPLICATIONS_H_
#define DEEPDIRECT_CORE_APPLICATIONS_H_

#include <optional>
#include <vector>

#include "core/directionality.h"
#include "graph/algorithms.h"
#include "graph/mixed_graph.h"
#include "util/random.h"

namespace deepdirect::core {

/// Predicted direction of one undirected tie.
struct DirectionPrediction {
  graph::NodeId source;  ///< predicted proposer
  graph::NodeId target;  ///< predicted responder
  double confidence;     ///< max(d(u,v), d(v,u))
};

/// Applies Eq. 28 to every undirected tie of `g` (each tie reported once,
/// from its canonical smaller-endpoint arc).
std::vector<DirectionPrediction> DiscoverDirections(
    const graph::MixedSocialNetwork& g, const DirectionalityModel& model);

/// Fraction of hidden ties whose direction the model predicts correctly
/// (the Fig. 3 metric). `split` must come from graph::HideDirections on the
/// network `model` was trained on.
double DirectionDiscoveryAccuracy(const graph::HiddenDirectionSplit& split,
                                  const DirectionalityModel& model);

/// Sparse weighted adjacency used for Jaccard link prediction. Cell values:
/// directed tie u->v contributes A[u][v] = 1; a bidirectional tie
/// contributes A[u][v] = d(u, v) and A[v][u] = d(v, u) when a model is
/// given (the directionality adjacency matrix of Sec. 5.2), or 1/1 without
/// a model (the original adjacency matrix); an undirected tie contributes
/// d(u,v)/d(v,u) with a model, or 0.5/0.5 without.
class WeightedAdjacency {
 public:
  /// Builds from `g`, quantifying bidirectional/undirected ties with
  /// `model` when provided.
  WeightedAdjacency(const graph::MixedSocialNetwork& g,
                    const DirectionalityModel* model);

  size_t num_nodes() const { return out_offsets_.size() - 1; }

  /// Row sum Σ_k A[u][k].
  double OutSum(graph::NodeId u) const { return out_sums_[u]; }

  /// Column sum Σ_k A[k][v].
  double InSum(graph::NodeId v) const { return in_sums_[v]; }

  /// Σ_k A[u][k] · A[k][v] — the numerator of Eq. 29.
  double PathWeight(graph::NodeId u, graph::NodeId v) const;

  /// The Jaccard-style score f(u → v) of Eq. 29.
  double JaccardScore(graph::NodeId u, graph::NodeId v) const;

 private:
  struct Entry {
    graph::NodeId node;
    double weight;
  };
  // CSR of outgoing weighted entries sorted by destination, plus incoming.
  std::vector<size_t> out_offsets_;
  std::vector<Entry> out_entries_;
  std::vector<size_t> in_offsets_;
  std::vector<Entry> in_entries_;
  std::vector<double> out_sums_;
  std::vector<double> in_sums_;
};

/// Configuration of the link-prediction experiment (Sec. 6.3).
struct LinkPredictionConfig {
  /// Cap on evaluated candidate pairs (uniformly subsampled beyond this).
  size_t max_candidates = 200000;
  uint64_t seed = 97;
};

/// Result of one link-prediction run.
struct LinkPredictionResult {
  double auc = 0.0;
  size_t num_candidates = 0;
  size_t num_positives = 0;
};

/// Runs the Sec. 6.3 protocol on `holdout`: scores ordered 2-hop pairs of
/// its reduced network G' by Eq. 29 over the (model-quantified or
/// original) adjacency. The task is predicting new *directed* ties with
/// their orientation: a removed directed tie is positive in its true
/// orientation, its reverse is excluded, and both orientations of a
/// removed bidirectional or undirected tie are excluded (no orientation
/// target). This is the reading under which quantifying directions can
/// matter at all: Eq. 29 itself is directional. `model` must be trained
/// on G' (or pass nullptr for the original binary adjacency baseline).
/// Scoring the same holdout with identical configs keeps methods
/// comparable.
LinkPredictionResult RunLinkPrediction(const graph::TieHoldout& holdout,
                                       const DirectionalityModel* model,
                                       const LinkPredictionConfig& config);

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_APPLICATIONS_H_
