// Core identifier and tie types for mixed social networks.
//
// Terminology (follows the paper, Sec. 2):
//  * A *social tie* is a relationship between two individuals. It is
//    directed (E_d), bidirectional (E_b), or undirected (E_u).
//  * An *arc* is one ordered instance (u, v) of a tie. A directed tie
//    contributes one arc; bidirectional and undirected ties contribute two
//    arcs (u, v) and (v, u) that are *twins* of each other. This matches
//    Definition 1, where (u,v), (v,u) ∈ E both represent a bidirectional or
//    undirected tie.

#ifndef DEEPDIRECT_GRAPH_TYPES_H_
#define DEEPDIRECT_GRAPH_TYPES_H_

#include <cstdint>

namespace deepdirect::graph {

/// Node identifier, dense in [0, num_nodes).
using NodeId = uint32_t;

/// Arc identifier, dense in [0, num_arcs).
using ArcId = uint32_t;

/// Sentinel for "no arc".
inline constexpr ArcId kInvalidArc = static_cast<ArcId>(-1);

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// The three tie categories of a mixed social network (Definition 1).
enum class TieType : uint8_t {
  kDirected = 0,       ///< direction known, single arc
  kBidirectional = 1,  ///< both directions exist and are known
  kUndirected = 2,     ///< direction unknown (to be learned)
};

/// One ordered arc of a social tie.
struct Arc {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  TieType type = TieType::kDirected;

  bool operator==(const Arc& other) const {
    return src == other.src && dst == other.dst && type == other.type;
  }
};

}  // namespace deepdirect::graph

#endif  // DEEPDIRECT_GRAPH_TYPES_H_
