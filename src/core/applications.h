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

  /// Σ_k A[u][k] · A[k][v] · mid(k) for a caller-supplied middle-node
  /// weighting (powers the Adamic-Adar / resource-allocation variants).
  template <typename MidFn>
  double WeightedPathSum(graph::NodeId u, graph::NodeId v,
                         MidFn&& mid) const {
    DD_CHECK_LT(u, num_nodes());
    DD_CHECK_LT(v, num_nodes());
    size_t i = out_offsets_[u];
    const size_t i_end = out_offsets_[u + 1];
    size_t j = in_offsets_[v];
    const size_t j_end = in_offsets_[v + 1];
    double total = 0.0;
    while (i < i_end && j < j_end) {
      const graph::NodeId a = out_entries_[i].node;
      const graph::NodeId b = in_entries_[j].node;
      if (a < b) {
        ++i;
      } else if (b < a) {
        ++j;
      } else {
        total += out_entries_[i].weight * in_entries_[j].weight * mid(a);
        ++i;
        ++j;
      }
    }
    return total;
  }

  /// The Jaccard-style score f(u → v) of Eq. 29.
  double JaccardScore(graph::NodeId u, graph::NodeId v) const;

  /// Total weighted throughput of node k (OutSum + InSum), the "strength"
  /// used by the Adamic-Adar and resource-allocation variants.
  double Strength(graph::NodeId k) const { return OutSum(k) + InSum(k); }

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

/// Scoring functions for candidate pairs (Eq. 29 is kJaccard; the rest are
/// classic weighted neighborhood predictors, all of which consume the
/// directionality adjacency matrix identically).
enum class LinkScoreType {
  kJaccard = 0,             ///< Eq. 29
  kCommonNeighbors = 1,     ///< Σ_k A[u][k]·A[k][v]
  kAdamicAdar = 2,          ///< middle nodes down-weighted by 1/log(1+strength)
  kResourceAllocation = 3,  ///< middle nodes down-weighted by 1/strength
};

/// Short lowercase name of a score type.
const char* LinkScoreTypeToString(LinkScoreType type);

/// Computes the chosen score for the ordered pair (u, v).
double LinkScore(const WeightedAdjacency& adjacency, LinkScoreType type,
                 graph::NodeId u, graph::NodeId v);

/// Configuration of the link-prediction experiment (Sec. 6.3).
struct LinkPredictionConfig {
  /// Fraction of ties removed to form the training network G'.
  double holdout_fraction = 0.2;
  /// Cap on evaluated candidate pairs (uniformly subsampled beyond this).
  size_t max_candidates = 200000;
  /// Scoring function over the (quantified) adjacency matrix.
  LinkScoreType score = LinkScoreType::kJaccard;
  /// Ordered protocol (default): candidates are *ordered* 2-hop pairs
  /// scored by the directional Eq. 29, and the task is predicting new
  /// *directed* ties with their orientation — a removed directed tie is
  /// positive in its true orientation, its reverse is excluded, and
  /// removed bidirectional ties are excluded entirely (no orientation
  /// target). This is the reading under which quantifying directions can
  /// matter at all: Eq. 29 itself is directional. With `ordered = false`,
  /// unordered pairs are scored by the better orientation and every
  /// removed tie is a positive (direction-agnostic baseline protocol).
  bool ordered = true;
  uint64_t seed = 97;
};

/// Result of one link-prediction run.
struct LinkPredictionResult {
  double auc = 0.0;
  size_t num_candidates = 0;
  size_t num_positives = 0;
};

/// Runs the Sec. 6.3 protocol on `holdout`: scores ordered 2-hop pairs of
/// its reduced network G' with the (model-quantified or original)
/// adjacency, and labels a pair positive iff it is one of the removed ties.
/// `model` must be trained on G' (or pass nullptr for the original binary
/// adjacency baseline). Scoring the same holdout with identical configs
/// keeps methods comparable.
LinkPredictionResult RunLinkPrediction(const graph::TieHoldout& holdout,
                                       const DirectionalityModel* model,
                                       const LinkPredictionConfig& config);

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_APPLICATIONS_H_
