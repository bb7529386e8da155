// TieIndex: dense indexing of the symmetric closure of a mixed network's
// ties.
//
// DeepDirect's preprocessing (Algorithm 1, lines 2–5) adds the reverse arc
// (v, u) of every directed tie (u, v) to E, so after preprocessing *every*
// tie contributes two arcs. The resulting arc set is exactly
// { (u, v) : v ∈ UndirectedNeighbors(u) }, which this class indexes densely:
// arc (u, v) gets index und_offsets[u] + rank of v among u's neighbors.
// The embedding matrix M and connection matrix N are rowed by this index.

#ifndef DEEPDIRECT_CORE_TIE_INDEX_H_
#define DEEPDIRECT_CORE_TIE_INDEX_H_

#include <span>
#include <utility>
#include <vector>

#include "graph/mixed_graph.h"
#include "util/status.h"

namespace deepdirect::core {

/// Label category of a closure arc.
enum class ArcClass : uint8_t {
  kLabeledPositive = 0,  ///< (u,v) with directed tie u->v (label 1)
  kLabeledNegative = 1,  ///< reverse of a directed tie (label 0)
  kBidirectional = 2,    ///< arc of a bidirectional tie (no label)
  kUndirected = 3,       ///< arc of an undirected tie (pseudo-labels apply)
};

/// Immutable symmetric-closure index over a network's ties. Does not retain
/// a reference to the source network.
class TieIndex {
 public:
  explicit TieIndex(const graph::MixedSocialNetwork& g);

  /// Number of closure arcs (= 2 × number of ties).
  size_t num_arcs() const { return src_.size(); }

  size_t num_nodes() const { return offsets_.size() - 1; }

  /// Index of arc (u, v). Checked: the tie must exist.
  size_t IndexOf(graph::NodeId u, graph::NodeId v) const;

  /// Index of arc (u, v), or num_arcs() if the pair has no tie.
  size_t TryIndexOf(graph::NodeId u, graph::NodeId v) const;

  /// OK when (u, v) is a closure arc; a NotFound naming the pair when it
  /// hosts no tie of the training network (u may be any node id).
  util::Status CheckTie(graph::NodeId u, graph::NodeId v) const;

  /// Endpoints of arc `idx` as (src, dst).
  std::pair<graph::NodeId, graph::NodeId> ArcAt(size_t idx) const {
    DD_CHECK_LT(idx, src_.size());
    return {src_[idx], dst_[idx]};
  }

  /// Index of the reverse arc (dst, src). O(log degree).
  size_t ReverseOf(size_t idx) const {
    const auto [u, v] = ArcAt(idx);
    return IndexOf(v, u);
  }

  /// Tie degree |c(e)| over the closure: every tie of dst except the return
  /// arc, i.e. UndirectedDegree(dst) − 1.
  uint32_t TieDegree(size_t idx) const {
    DD_CHECK_LT(idx, src_.size());
    return Degree(dst_[idx]) - 1;
  }

  /// Distinct neighbors of node u (sorted).
  std::span<const graph::NodeId> Neighbors(graph::NodeId u) const {
    DD_CHECK_LT(u, num_nodes());
    const size_t begin = offsets_[u];
    const size_t end = offsets_[u + 1];
    if (begin == end) return {};
    return {adj_.data() + begin, end - begin};
  }

  /// Number of distinct neighbors of u.
  uint32_t Degree(graph::NodeId u) const {
    DD_CHECK_LT(u, num_nodes());
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Label class of arc `idx`.
  ArcClass Class(size_t idx) const {
    DD_CHECK_LT(idx, classes_.size());
    return classes_[idx];
  }

  /// Whether arc `idx` carries a supervised label.
  bool IsLabeled(size_t idx) const {
    const ArcClass c = Class(idx);
    return c == ArcClass::kLabeledPositive || c == ArcClass::kLabeledNegative;
  }

  /// Supervised label (1.0 or 0.0). Checked: arc must be labeled.
  double Label(size_t idx) const {
    DD_CHECK(IsLabeled(idx));
    return Class(idx) == ArcClass::kLabeledPositive ? 1.0 : 0.0;
  }

  /// Total connected-tie pairs over the closure, |C(G)| = Σ_e |c(e)|.
  uint64_t NumConnectedTiePairs() const { return num_connected_pairs_; }

  /// Samples a connected tie e' of arc `idx` uniformly; returns num_arcs()
  /// when c(e) is empty (leaf destination).
  template <typename RngT>
  size_t SampleConnectedTie(size_t idx, RngT& rng) const {
    const graph::NodeId u = src_[idx];
    const graph::NodeId v = dst_[idx];
    const uint32_t deg = Degree(v);
    if (deg <= 1) return num_arcs();
    // Pick a neighbor of v other than u: draw from deg-1 slots, skipping
    // u's rank.
    const size_t base = offsets_[v];
    const size_t rank_of_u = RankOf(v, u);
    size_t pick = rng.NextIndex(deg - 1);
    if (pick >= rank_of_u) ++pick;
    return base + pick;
  }

  /// Raw CSR views for serialization (the DDS1 servable export). The
  /// adjacency span doubles as the arc → dst map: arc e's destination is
  /// Adjacency()[e] by construction of the dense index.
  std::span<const size_t> Offsets() const { return offsets_; }
  std::span<const graph::NodeId> Adjacency() const { return adj_; }

 private:
  // Rank of neighbor w within u's sorted neighbor list.
  size_t RankOf(graph::NodeId u, graph::NodeId w) const;

  std::vector<size_t> offsets_;          // per node, into adj_
  std::vector<graph::NodeId> adj_;       // sorted neighbors (= dst_ grouped)
  std::vector<graph::NodeId> src_;       // arc -> src
  std::vector<graph::NodeId> dst_;       // arc -> dst
  std::vector<ArcClass> classes_;        // arc -> label class
  uint64_t num_connected_pairs_ = 0;
};

/// FNV-1a over the closure arc endpoints: a cheap fingerprint that detects
/// "same size, different network" mismatches when binding a serialized
/// artifact (model file, shard store) back to a training network.
inline uint64_t HashTieIndex(const TieIndex& index) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t e = 0; e < index.num_arcs(); ++e) {
    const auto [u, v] = index.ArcAt(e);
    for (uint32_t word : {static_cast<uint32_t>(u),
                          static_cast<uint32_t>(v)}) {
      hash ^= word;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_TIE_INDEX_H_
