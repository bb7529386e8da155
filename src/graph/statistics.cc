#include "graph/statistics.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace deepdirect::graph {

double Reciprocity(const MixedSocialNetwork& g) {
  const double directed_arcs =
      static_cast<double>(g.num_directed_ties()) +
      2.0 * static_cast<double>(g.num_bidirectional_ties());
  if (directed_arcs == 0.0) return 0.0;
  return 2.0 * static_cast<double>(g.num_bidirectional_ties()) /
         directed_arcs;
}

double DegreeAssortativity(const MixedSocialNetwork& g) {
  // Pearson correlation over tie endpoints, each unordered tie counted
  // once with both orientations (standard symmetric treatment).
  double sum_x = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  uint64_t count = 0;
  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& arc = g.arc(id);
    if (arc.type != TieType::kDirected && arc.src > arc.dst) continue;
    const double du = g.UndirectedDegree(arc.src);
    const double dv = g.UndirectedDegree(arc.dst);
    // Symmetric: add both (du, dv) and (dv, du).
    sum_x += du + dv;
    sum_xx += du * du + dv * dv;
    sum_xy += 2.0 * du * dv;
    count += 2;
  }
  if (count == 0) return 0.0;
  const double n = static_cast<double>(count);
  const double mean = sum_x / n;
  const double var = sum_xx / n - mean * mean;
  if (var <= 1e-12) return 0.0;
  const double cov = sum_xy / n - mean * mean;
  return cov / var;
}

double AveragePathLengthSampled(const MixedSocialNetwork& g,
                                size_t num_sources, util::Rng& rng) {
  const size_t n = g.num_nodes();
  if (n < 2) return 0.0;
  const size_t k = std::min(num_sources, n);
  double total = 0.0;
  uint64_t pairs = 0;
  for (size_t source_index : rng.SampleWithoutReplacement(n, k)) {
    const auto dist = BfsDistances(g, static_cast<NodeId>(source_index));
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] != kUnreachable && dist[v] > 0) {
        total += dist[v];
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

}  // namespace deepdirect::graph
