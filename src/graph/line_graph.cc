#include "graph/line_graph.h"

namespace deepdirect::graph {

LineGraph BuildLineGraph(const MixedSocialNetwork& g) {
  LineGraph line;
  line.num_nodes = g.num_arcs();
  line.edges.reserve(PredictLineGraphSize(g));
  for (ArcId e = 0; e < g.num_arcs(); ++e) {
    g.ForEachConnectedTie(
        e, [&](ArcId c) { line.edges.emplace_back(e, c); });
  }
  return line;
}

uint64_t PredictLineGraphSize(const MixedSocialNetwork& g) {
  uint64_t pairs = 0;
  for (ArcId e = 0; e < g.num_arcs(); ++e) pairs += g.TieDegree(e);
  return pairs;
}

}  // namespace deepdirect::graph
