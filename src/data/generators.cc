#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_set>

namespace deepdirect::data {

using graph::GraphBuilder;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

namespace {

// Packs an unordered node pair for occupancy checks.
uint64_t PairKey(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

// Deterministic statuses: early arrivals rank higher, with Gaussian jitter.
std::vector<double> ComputeStatuses(size_t num_nodes, double status_noise,
                                    util::Rng& rng) {
  std::vector<double> status(num_nodes);
  for (size_t u = 0; u < num_nodes; ++u) {
    const double base =
        static_cast<double>(num_nodes - u) / static_cast<double>(num_nodes);
    status[u] = base + status_noise * rng.NextGaussian();
  }
  return status;
}

// Runs the status-model process, emitting each tie exactly once through
// `sink(src, dst, type)`. Templating over the sink is what makes the
// builder path and the streaming-to-disk path byte-identical processes:
// the sink does no RNG draws, so both consume the same stream and emit the
// same ties in the same order.
template <typename Sink>
void GenerateStatusNetworkImpl(const GeneratorConfig& config, Sink&& sink) {
  DD_CHECK_GE(config.num_nodes, 3u);
  DD_CHECK_GE(config.ties_per_node, 1.0);
  DD_CHECK_GE(config.bidirectional_fraction, 0.0);
  DD_CHECK_LE(config.bidirectional_fraction, 1.0);
  DD_CHECK_GE(config.triangle_closure_prob, 0.0);
  DD_CHECK_LE(config.triangle_closure_prob, 1.0);
  DD_CHECK_GE(config.direction_noise, 0.0);
  DD_CHECK_LE(config.direction_noise, 1.0);

  util::Rng rng(config.seed);
  // Statuses must be drawn first so GeneratorStatuses() reproduces them.
  const std::vector<double> status =
      ComputeStatuses(config.num_nodes, config.status_noise, rng);

  // Community assignment is round-robin, so within-community arrival order
  // matches global arrival order and statuses stay globally consistent.
  const size_t base_m = static_cast<size_t>(config.ties_per_node);
  const size_t max_communities =
      std::max<size_t>(1, config.num_nodes / (base_m + 2));
  const size_t num_communities =
      std::max<size_t>(1, std::min(config.num_communities, max_communities));
  auto community_of = [num_communities](NodeId u) {
    return static_cast<size_t>(u) % num_communities;
  };

  std::unordered_set<uint64_t> pair_used;
  // Endpoint multisets: every tie pushes both endpoints, so uniform draws
  // realize degree-proportional (preferential) attachment — globally and
  // per community.
  std::vector<NodeId> endpoint_pool;
  std::vector<std::vector<NodeId>> community_pool(num_communities);
  // Undirected adjacency maintained incrementally for triadic closure.
  std::vector<std::vector<NodeId>> neighbors(config.num_nodes);

  auto add_tie = [&](NodeId a, NodeId b) {
    // Tie type and direction per the status model.
    TieType type = rng.NextBool(config.bidirectional_fraction)
                       ? TieType::kBidirectional
                       : TieType::kDirected;
    NodeId src = a, dst = b;
    if (type == TieType::kDirected) {
      // Point from lower status to higher status, with noise.
      if (status[src] > status[dst]) std::swap(src, dst);
      if (rng.NextBool(config.direction_noise)) std::swap(src, dst);
    }
    sink(src, dst, type);
    pair_used.insert(PairKey(a, b));
    endpoint_pool.push_back(a);
    endpoint_pool.push_back(b);
    community_pool[community_of(a)].push_back(a);
    community_pool[community_of(b)].push_back(b);
    neighbors[a].push_back(b);
    neighbors[b].push_back(a);
  };

  // Seed cliques: one clique of m+1 nodes per community (round-robin ids,
  // so community c's seed members are c, c+K, c+2K, ...).
  const size_t m0 = std::min(config.num_nodes,
                             (base_m + 1) * num_communities);
  for (NodeId a = 0; a < m0; ++a) {
    for (NodeId b = a + 1; b < m0; ++b) {
      if (community_of(a) == community_of(b)) add_tie(a, b);
    }
  }
  // Connect the seed cliques in a ring so the network is connected even
  // with zero cross-community attachments.
  if (num_communities > 1) {
    for (size_t c = 0; c < num_communities; ++c) {
      const NodeId a = static_cast<NodeId>(c);
      const NodeId b = static_cast<NodeId>((c + 1) % num_communities);
      if (!pair_used.contains(PairKey(a, b))) add_tie(a, b);
    }
  }

  // Growth phase.
  for (NodeId t = static_cast<NodeId>(m0); t < config.num_nodes; ++t) {
    const double frac = config.ties_per_node - static_cast<double>(base_m);
    size_t m = base_m + (rng.NextBool(frac) ? 1 : 0);
    m = std::min<size_t>(m, t);  // cannot exceed the number of candidates

    std::vector<NodeId> chosen;
    chosen.reserve(m);
    size_t attempts = 0;
    const size_t max_attempts = 50 * (m + 1);
    while (chosen.size() < m && attempts < max_attempts) {
      ++attempts;
      NodeId candidate;
      if (!chosen.empty() && rng.NextBool(config.triangle_closure_prob)) {
        // Triadic closure: a neighbor of an already-chosen target, with a
        // status-up bias (directed closure).
        const NodeId anchor = chosen[rng.NextIndex(chosen.size())];
        const auto& anchor_neighbors = neighbors[anchor];
        candidate = anchor_neighbors[rng.NextIndex(anchor_neighbors.size())];
        const bool status_up = status[candidate] > status[anchor];
        const double accept = status_up ? config.directed_closure_bias
                                        : 1.0 - config.directed_closure_bias;
        if (!rng.NextBool(accept)) continue;
      } else if (num_communities > 1 &&
                 !rng.NextBool(config.cross_community_fraction) &&
                 !community_pool[community_of(t)].empty()) {
        const auto& pool = community_pool[community_of(t)];
        candidate = pool[rng.NextIndex(pool.size())];
      } else {
        candidate = endpoint_pool[rng.NextIndex(endpoint_pool.size())];
      }
      if (candidate == t) continue;
      if (pair_used.contains(PairKey(t, candidate))) continue;
      if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end()) {
        continue;
      }
      if (config.status_homophily_bandwidth > 0.0) {
        const double gap = std::abs(status[t] - status[candidate]);
        if (!rng.NextBool(
                std::exp(-gap / config.status_homophily_bandwidth))) {
          continue;
        }
      }
      chosen.push_back(candidate);
      add_tie(t, candidate);
    }
    // Fallback for pathological rejection: connect to the first free node.
    if (chosen.empty()) {
      for (NodeId candidate = 0; candidate < t; ++candidate) {
        if (!pair_used.contains(PairKey(t, candidate))) {
          add_tie(t, candidate);
          break;
        }
      }
    }
  }
}

}  // namespace

std::vector<double> GeneratorStatuses(const GeneratorConfig& config) {
  util::Rng rng(config.seed);
  return ComputeStatuses(config.num_nodes, config.status_noise, rng);
}

MixedSocialNetwork GenerateStatusNetwork(const GeneratorConfig& config) {
  GraphBuilder builder(config.num_nodes);
  GenerateStatusNetworkImpl(
      config, [&builder](NodeId src, NodeId dst, TieType type) {
        DD_CHECK(builder.AddTie(src, dst, type).ok());
      });
  return std::move(builder).Build();
}

util::Status WriteStatusNetworkEdgeList(const GeneratorConfig& config,
                                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return util::Status::IOError("cannot open for writing: " + path);
  }
  out << "# nodes " << config.num_nodes << "\n";
  GenerateStatusNetworkImpl(
      config, [&out](NodeId src, NodeId dst, TieType type) {
        // Match WriteEdgeList's convention: non-directed ties are emitted
        // once from the smaller endpoint, so a streamed file is
        // line-for-line identical to SaveEdgeList of the built network.
        if (type == TieType::kBidirectional && src > dst) std::swap(src, dst);
        const char type_char = type == TieType::kBidirectional ? 'b' : 'd';
        out << src << ' ' << dst << ' ' << type_char << '\n';
      });
  out.flush();
  if (!out.good()) return util::Status::IOError("write failed: " + path);
  return util::Status::OK();
}

}  // namespace deepdirect::data
