#include "core/tie_index.h"

#include <algorithm>
#include <string>

namespace deepdirect::core {

using graph::ArcId;
using graph::kInvalidArc;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

TieIndex::TieIndex(const MixedSocialNetwork& g) {
  const size_t n = g.num_nodes();
  offsets_.assign(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    offsets_[u + 1] = offsets_[u] + g.UndirectedDegree(u);
  }
  const size_t num_arcs = offsets_[n];
  adj_.reserve(num_arcs);
  src_.resize(num_arcs);
  dst_.resize(num_arcs);
  classes_.resize(num_arcs);

  size_t idx = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.UndirectedNeighbors(u)) {
      adj_.push_back(v);
      src_[idx] = u;
      dst_[idx] = v;
      // Classify arc (u, v) against the original tie.
      const ArcId forward = g.FindArc(u, v);
      if (forward != kInvalidArc) {
        switch (g.arc(forward).type) {
          case TieType::kDirected:
            classes_[idx] = ArcClass::kLabeledPositive;
            break;
          case TieType::kBidirectional:
            classes_[idx] = ArcClass::kBidirectional;
            break;
          case TieType::kUndirected:
            classes_[idx] = ArcClass::kUndirected;
            break;
        }
      } else {
        // Only reverse arcs of directed ties lack a forward original arc.
        classes_[idx] = ArcClass::kLabeledNegative;
      }
      ++idx;
    }
  }
  DD_CHECK_EQ(idx, num_arcs);

  uint64_t pairs = 0;
  for (size_t a = 0; a < num_arcs; ++a) pairs += TieDegree(a);
  num_connected_pairs_ = pairs;
}

size_t TieIndex::RankOf(NodeId u, NodeId w) const {
  const auto neighbors = Neighbors(u);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), w);
  DD_CHECK_MSG(it != neighbors.end() && *it == w,
               "node " << w << " is not a neighbor of " << u);
  return static_cast<size_t>(it - neighbors.begin());
}

size_t TieIndex::TryIndexOf(NodeId u, NodeId v) const {
  DD_CHECK_LT(u, num_nodes());
  const auto neighbors = Neighbors(u);
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), v);
  if (it == neighbors.end() || *it != v) return num_arcs();
  return offsets_[u] + static_cast<size_t>(it - neighbors.begin());
}

util::Status TieIndex::CheckTie(NodeId u, NodeId v) const {
  if (u < num_nodes() && TryIndexOf(u, v) < num_arcs()) {
    return util::Status::OK();
  }
  return util::Status::NotFound("no tie between " + std::to_string(u) +
                                " and " + std::to_string(v) +
                                " in the training network");
}

size_t TieIndex::IndexOf(NodeId u, NodeId v) const {
  const size_t idx = TryIndexOf(u, v);
  DD_CHECK_MSG(idx < num_arcs(), "no tie between " << u << " and " << v);
  return idx;
}

}  // namespace deepdirect::core
