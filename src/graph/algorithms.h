// Basic graph algorithms over the undirected view of a mixed social network:
// BFS distances, connected components, and the transformation utilities
// the paper's experimental pipeline relies on (top-degree extraction,
// hiding directions of directed ties, tie hold-out).

#ifndef DEEPDIRECT_GRAPH_ALGORITHMS_H_
#define DEEPDIRECT_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "graph/mixed_graph.h"
#include "util/random.h"

namespace deepdirect::graph {

/// Distance value for unreachable nodes in BFS results.
inline constexpr uint32_t kUnreachable = static_cast<uint32_t>(-1);

/// Unweighted shortest-path distances from `source` over the undirected view
/// (the paper treats the network as undirected for shortest paths, Sec. 3.1).
std::vector<uint32_t> BfsDistances(const MixedSocialNetwork& g, NodeId source);

/// Connected-component label per node (labels dense in [0, k)) under the
/// undirected view; returns the number of components via `num_components`.
std::vector<uint32_t> ConnectedComponents(const MixedSocialNetwork& g,
                                          size_t* num_components);

/// Result of hiding the directions of part of E_d: the transformed network
/// plus ground truth for evaluation.
struct HiddenDirectionSplit {
  /// Network where the selected directed ties became undirected ties.
  MixedSocialNetwork network;
  /// For every undirected arc (u, v) in `network` that came from a hidden
  /// directed tie: 1.0 if the true direction was u -> v, else 0.0. Indexed
  /// by arc id in `network`; arcs that were not hidden hold -1.0.
  std::vector<double> true_label;
  /// Arc ids (in `network`) of the hidden arcs whose true label is 1
  /// (i.e. the canonical true-direction arc for each hidden tie).
  std::vector<ArcId> hidden_true_arcs;
};

/// Hides the directions of a uniformly random subset of directed ties so
/// that `directed_fraction` of the original directed ties remain directed
/// (the rest become undirected, exactly as the paper's Sec. 6.2 protocol).
/// Bidirectional ties are untouched.
HiddenDirectionSplit HideDirections(const MixedSocialNetwork& g,
                                    double directed_fraction, util::Rng& rng);

/// Extracts the subnetwork induced by the `fraction` of nodes with highest
/// total degree (paper Sec. 6.2.5 visualization protocol). Node ids are
/// re-densified; isolated nodes are dropped.
MixedSocialNetwork TopDegreeSubnetwork(const MixedSocialNetwork& g,
                                       double fraction);

/// Removes a uniformly random `holdout_fraction` of ties (for the link
/// prediction protocol, Sec. 6.3: "all the individuals and 80% of social
/// ties"). Returns the reduced network and the list of removed ties as
/// (u, v) node pairs with their original type.
struct TieHoldout {
  MixedSocialNetwork network;
  std::vector<Arc> removed_ties;  // one entry per removed tie (not per arc)
};
TieHoldout HoldOutTies(const MixedSocialNetwork& g, double holdout_fraction,
                       util::Rng& rng);

}  // namespace deepdirect::graph

#endif  // DEEPDIRECT_GRAPH_ALGORITHMS_H_
