// Line digraph construction (Harary & Norman 1960), implementing the
// indirect edge-embedding route the paper discusses and rejects in Sec. 4:
// nodes of the line graph are the arcs of the original network, and there is
// a line-graph edge e1 -> e2 iff e2 is a connected tie of e1.
//
// Provided (a) as a correctness oracle for connected-tie enumeration and
// (b) to demonstrate empirically the size blow-up argument of the paper
// (|V_line| = |E_original|, |E_line| = Σ_v deg_in(v)·deg_out(v)).

#ifndef DEEPDIRECT_GRAPH_LINE_GRAPH_H_
#define DEEPDIRECT_GRAPH_LINE_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/mixed_graph.h"

namespace deepdirect::graph {

/// The line digraph of a mixed social network. Node i of the line graph is
/// arc i of the original network.
struct LineGraph {
  size_t num_nodes = 0;                        ///< = original num_arcs
  std::vector<std::pair<ArcId, ArcId>> edges;  ///< (e1, e2) connected pairs
};

/// Builds the full line digraph. Memory is O(|C(G)|); use
/// PredictLineGraphSize first on large inputs.
LineGraph BuildLineGraph(const MixedSocialNetwork& g);

/// Predicted edge count of the line graph without materializing it:
/// |C(G)| = Σ_e |c(e)|, the sum of every arc's tie degree.
uint64_t PredictLineGraphSize(const MixedSocialNetwork& g);

}  // namespace deepdirect::graph

#endif  // DEEPDIRECT_GRAPH_LINE_GRAPH_H_
