// Synthetic social network generation.
//
// The paper evaluates on five crawled networks we cannot redistribute, so
// this module simulates them (see DESIGN.md, Substitutions). The core
// generator is a *status-model* preferential-attachment process with
// triadic closure:
//
//  * Each node u has a latent status: high for early arrivals (which also
//    accumulate degree through preferential attachment) plus Gaussian
//    jitter.
//  * New nodes attach to `ties_per_node` targets chosen by preferential
//    attachment, or — with probability `triangle_closure_prob` — by closing
//    a triangle through an existing target's neighbor (yields realistic
//    clustering).
//  * A new tie is bidirectional with probability `bidirectional_fraction`;
//    otherwise directed from the lower-status endpoint to the higher-status
//    endpoint, flipped with probability `direction_noise`.
//
// Because direction follows a (noisy) global status order, the generated
// networks exhibit exactly the two directionality regularities the paper's
// methods exploit: the Degree Consistency Pattern (low degree proposes to
// high degree) and the Triad Status Consistency Pattern (few directed
// loops). `direction_noise` controls how strong the patterns are.

#ifndef DEEPDIRECT_DATA_GENERATORS_H_
#define DEEPDIRECT_DATA_GENERATORS_H_

#include <string>
#include <vector>

#include "graph/mixed_graph.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::data {

/// Parameters of the status-model generator.
struct GeneratorConfig {
  size_t num_nodes = 1000;
  /// Mean number of ties each arriving node creates (may be fractional;
  /// realized per node as floor + Bernoulli(frac)).
  double ties_per_node = 5.0;
  /// Fraction of new ties that are bidirectional (the rest are directed).
  double bidirectional_fraction = 0.3;
  /// Probability that a tie is formed by triadic closure rather than pure
  /// preferential attachment.
  double triangle_closure_prob = 0.3;
  /// Probability a directed tie's direction contradicts the status order.
  double direction_noise = 0.1;
  /// Standard deviation of the Gaussian jitter added to node status.
  double status_noise = 0.15;
  /// Number of communities. Nodes join communities round-robin; ties form
  /// within the community except for a `cross_community_fraction` of
  /// attachments. Communities make the status signal only *locally*
  /// readable from topology (each community occupies its own region of any
  /// unsupervised embedding), which is what gives supervised embedding
  /// shaping its edge — mirroring the community structure of the real
  /// networks the paper evaluates on.
  size_t num_communities = 8;
  /// Fraction of preferential attachments drawn from the global pool
  /// instead of the joining node's community.
  double cross_community_fraction = 0.1;
  /// Status homophily strength: attachment candidates are accepted with
  /// probability exp(−|Δstatus| / homophily_bandwidth); 0 disables the
  /// filter. Homophily makes fine-grained status readable from *who* a node
  /// connects to (not just how many), the signal embedding methods smooth
  /// over the graph; real social networks exhibit exactly this assortative
  /// mixing by status.
  double status_homophily_bandwidth = 0.0;
  /// Directed triadic closure: when closing a triangle through an anchor's
  /// neighbor, a status-*increasing* hop (status(candidate) > status(anchor))
  /// is accepted with this probability and a status-decreasing hop with its
  /// complement. 0.5 makes closure direction-blind. Directed closure (per
  /// status theory: endorsement paths run up the status order) is what
  /// gives tie *directionality* predictive value for future links — the
  /// premise of the paper's Sec. 5.2/6.3 quantification application.
  double directed_closure_bias = 0.75;
  uint64_t seed = 42;
};

/// Generates a mixed social network containing directed and bidirectional
/// ties (no undirected ties — those are produced experimentally by
/// graph::HideDirections, matching the paper's datasets).
graph::MixedSocialNetwork GenerateStatusNetwork(const GeneratorConfig& config);

/// Streams the status-model network of `config` straight to an edge-list
/// file (graph/graph_io.h format, with a `# nodes` header) without ever
/// materializing a MixedSocialNetwork: the tie stream goes to disk as it
/// is generated, so only the generator's own bookkeeping occupies RAM.
/// This is how the 10M+-tie inputs for out-of-core training are produced.
/// For the same config the emitted tie *set* is identical to SaveEdgeList
/// of GenerateStatusNetwork's result (same shared generation process, a
/// sink that draws no randomness, and the same smaller-endpoint-first
/// canonicalization of non-directed ties); only the line order differs —
/// generation order here versus CSR order there — so the sorted files are
/// byte-identical and loading either yields the same network.
util::Status WriteStatusNetworkEdgeList(const GeneratorConfig& config,
                                        const std::string& path);

/// Latent statuses used by the generator for a given config (recomputed
/// deterministically from the seed). Exposed for tests that check the
/// direction/status agreement rate.
std::vector<double> GeneratorStatuses(const GeneratorConfig& config);

}  // namespace deepdirect::data

#endif  // DEEPDIRECT_DATA_GENERATORS_H_
