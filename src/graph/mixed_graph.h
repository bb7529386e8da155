// MixedSocialNetwork: the immutable graph substrate of the library.
//
// The network stores every tie as one or two arcs (see graph/types.h) in a
// CSR layout sorted by (src, dst), with an inverse CSR for in-adjacency and
// a per-node sorted list of distinct undirected neighbors. All paper-level
// quantities — the modified in/out degrees of Eqs. 1–2, tie degrees and
// connected ties of Definition 4, common neighbors for triads — are answered
// from these indexes.
//
// Construction goes through GraphBuilder, which validates input (node range,
// self-loops, duplicate/conflicting ties) and returns Status errors for bad
// data rather than aborting.

#ifndef DEEPDIRECT_GRAPH_MIXED_GRAPH_H_
#define DEEPDIRECT_GRAPH_MIXED_GRAPH_H_

#include <span>
#include <unordered_set>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace deepdirect::graph {

/// Immutable mixed social network (Definition 1 of the paper).
class MixedSocialNetwork {
 public:
  /// Number of individuals |V|.
  size_t num_nodes() const { return num_nodes_; }

  /// Number of arcs |E| in the paper's sense: one per directed tie, two per
  /// bidirectional or undirected tie.
  size_t num_arcs() const { return arcs_.size(); }

  /// Number of distinct social ties (each bidirectional/undirected tie
  /// counted once).
  size_t num_ties() const { return num_ties_; }

  /// Counts of distinct ties per category.
  size_t num_directed_ties() const { return num_directed_ties_; }
  size_t num_bidirectional_ties() const { return num_bidirectional_ties_; }
  size_t num_undirected_ties() const { return num_undirected_ties_; }

  /// The arc with the given id.
  const Arc& arc(ArcId id) const {
    DD_CHECK_LT(id, arcs_.size());
    return arcs_[id];
  }

  /// All arcs, ordered by (src, dst).
  const std::vector<Arc>& arcs() const { return arcs_; }

  /// Arc ids leaving `u`, sorted by destination.
  std::span<const ArcId> OutArcs(NodeId u) const;

  /// Arc ids entering `u` (order unspecified).
  std::span<const ArcId> InArcs(NodeId u) const;

  /// The arc (u, v), or kInvalidArc if absent. O(log out-degree).
  ArcId FindArc(NodeId u, NodeId v) const;

  /// Whether the arc (u, v) exists.
  bool HasArc(NodeId u, NodeId v) const { return FindArc(u, v) != kInvalidArc; }

  /// Number of arcs leaving `u`.
  uint32_t OutArcCount(NodeId u) const {
    DD_CHECK_LT(u, num_nodes_);
    return static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  /// Number of arcs entering `u`.
  uint32_t InArcCount(NodeId u) const {
    DD_CHECK_LT(u, num_nodes_);
    return static_cast<uint32_t>(in_offsets_[u + 1] - in_offsets_[u]);
  }

  /// Modified out-degree of Eq. 1: directed and bidirectional out-ties count
  /// 1, undirected ties count 1/2.
  double DegOut(NodeId u) const;

  /// Modified in-degree of Eq. 2 (mirror of DegOut).
  double DegIn(NodeId u) const;

  /// Total degree deg(u) = deg_out(u) + deg_in(u).
  double Deg(NodeId u) const { return DegOut(u) + DegIn(u); }

  /// Tie degree |c(e)| (Definition 4): the number of connected ties of `e`.
  ///
  /// Note: Eq. 6 of the paper defines deg_tie(e) = |{v' : (v,v') ∈ E}| and
  /// asserts equality with |c(e)|; the two differ by one exactly when the
  /// return arc (v, u) exists. We implement |c(e)| (exclude the return arc),
  /// which is the quantity every formula actually consumes.
  uint32_t TieDegree(ArcId e) const;

  /// Calls `fn(ArcId)` for every connected tie of `e` (Definition 4): the
  /// arcs (v, v') with v' != u for e = (u, v).
  template <typename Fn>
  void ForEachConnectedTie(ArcId e, Fn&& fn) const {
    const Arc& a = arc(e);
    for (ArcId c : OutArcs(a.dst)) {
      if (arcs_[c].dst != a.src) fn(c);
    }
  }

  /// Distinct neighbors of `u` under the undirected view (sorted ascending).
  std::span<const NodeId> UndirectedNeighbors(NodeId u) const;

  /// Number of distinct undirected-view neighbors.
  uint32_t UndirectedDegree(NodeId u) const {
    DD_CHECK_LT(u, num_nodes_);
    return static_cast<uint32_t>(und_offsets_[u + 1] - und_offsets_[u]);
  }

  /// Common neighbors of u and v under the undirected view (sorted).
  std::vector<NodeId> CommonNeighbors(NodeId u, NodeId v) const;

  /// Allocation-free variant: clears `out` and fills it with the sorted
  /// common neighbors, reusing its capacity.
  void CommonNeighbors(NodeId u, NodeId v, std::vector<NodeId>& out) const;

  /// Arc ids of all directed arcs (E_d), in (src, dst) order.
  const std::vector<ArcId>& directed_arcs() const { return directed_arcs_; }

  /// Arc ids of all bidirectional arcs (both arcs of each tie).
  const std::vector<ArcId>& bidirectional_arcs() const {
    return bidirectional_arcs_;
  }

  /// Arc ids of all undirected arcs (both arcs of each tie).
  const std::vector<ArcId>& undirected_arcs() const {
    return undirected_arcs_;
  }

 private:
  friend class GraphBuilder;
  MixedSocialNetwork() = default;

  size_t num_nodes_ = 0;
  size_t num_ties_ = 0;
  size_t num_directed_ties_ = 0;
  size_t num_bidirectional_ties_ = 0;
  size_t num_undirected_ties_ = 0;

  std::vector<Arc> arcs_;          // sorted by (src, dst)
  std::vector<size_t> out_offsets_;  // CSR over arc ids (identity order)
  std::vector<ArcId> out_ids_;       // identity arc-id array backing OutArcs
  std::vector<size_t> in_offsets_;   // CSR offsets for in-adjacency
  std::vector<ArcId> in_adj_;        // arc ids grouped by dst
  std::vector<size_t> und_offsets_;  // CSR offsets for undirected neighbors
  std::vector<NodeId> und_adj_;      // sorted distinct neighbors per node

  std::vector<ArcId> directed_arcs_;
  std::vector<ArcId> bidirectional_arcs_;
  std::vector<ArcId> undirected_arcs_;
};

/// Incremental builder for MixedSocialNetwork.
class GraphBuilder {
 public:
  /// Creates a builder for a network over `num_nodes` individuals with ids
  /// [0, num_nodes).
  explicit GraphBuilder(size_t num_nodes);

  /// Adds one social tie between u and v.
  ///  * kDirected: the tie points u -> v.
  ///  * kBidirectional / kUndirected: order of u, v is irrelevant; both arcs
  ///    are created.
  /// Returns InvalidArgument for out-of-range ids, self-loops, or a second
  /// tie over the same unordered pair.
  util::Status AddTie(NodeId u, NodeId v, TieType type);

  /// Number of ties added so far.
  size_t num_ties() const { return ties_.size(); }

  /// Worker count for the index-assembly passes of Build() (0 = all
  /// hardware threads). Assembly shards nodes into fixed blocks with
  /// disjoint output regions, so the built network is bit-identical for
  /// every thread count.
  void SetNumThreads(size_t num_threads) { num_threads_ = num_threads; }

  /// Finalizes and returns the network. The builder is consumed.
  MixedSocialNetwork Build() &&;

 private:
  struct PendingTie {
    NodeId u, v;
    TieType type;
  };

  size_t num_nodes_;
  size_t num_threads_ = 1;
  std::vector<PendingTie> ties_;
  // Unordered-pair occupancy for duplicate detection.
  std::unordered_set<uint64_t> pair_keys_;
};

}  // namespace deepdirect::graph

#endif  // DEEPDIRECT_GRAPH_MIXED_GRAPH_H_
