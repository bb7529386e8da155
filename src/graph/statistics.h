// Network-level descriptive statistics used for dataset validation and the
// Table 2 report: reciprocity, degree assortativity, and (sampled) average
// path length.

#ifndef DEEPDIRECT_GRAPH_STATISTICS_H_
#define DEEPDIRECT_GRAPH_STATISTICS_H_

#include <cstdint>
#include <vector>

#include "graph/mixed_graph.h"
#include "util/random.h"

namespace deepdirect::graph {

/// Fraction of directed relations that are reciprocated. With explicit
/// bidirectional ties this is 2|E_b| / (|E_d| + 2|E_b|); undirected ties
/// are excluded (their direction is unknown).
double Reciprocity(const MixedSocialNetwork& g);

/// Pearson correlation of endpoint undirected degrees over all ties
/// (degree assortativity, Newman 2002). Returns 0 for degenerate inputs.
double DegreeAssortativity(const MixedSocialNetwork& g);

/// Average shortest-path length estimated from `num_sources` BFS sources
/// (exact when num_sources >= num_nodes). Unreachable pairs are skipped.
double AveragePathLengthSampled(const MixedSocialNetwork& g,
                                size_t num_sources, util::Rng& rng);

}  // namespace deepdirect::graph

#endif  // DEEPDIRECT_GRAPH_STATISTICS_H_
