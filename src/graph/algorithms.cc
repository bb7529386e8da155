#include "graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace deepdirect::graph {

std::vector<uint32_t> BfsDistances(const MixedSocialNetwork& g,
                                   NodeId source) {
  DD_CHECK_LT(source, g.num_nodes());
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.UndirectedNeighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<uint32_t> ConnectedComponents(const MixedSocialNetwork& g,
                                          size_t* num_components) {
  std::vector<uint32_t> label(g.num_nodes(), kUnreachable);
  uint32_t next = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (label[s] != kUnreachable) continue;
    label[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g.UndirectedNeighbors(u)) {
        if (label[v] == kUnreachable) {
          label[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  if (num_components != nullptr) *num_components = next;
  return label;
}

HiddenDirectionSplit HideDirections(const MixedSocialNetwork& g,
                                    double directed_fraction, util::Rng& rng) {
  DD_CHECK_GE(directed_fraction, 0.0);
  DD_CHECK_LE(directed_fraction, 1.0);

  const std::vector<ArcId>& directed = g.directed_arcs();
  const size_t num_directed = directed.size();
  const size_t keep = static_cast<size_t>(directed_fraction * num_directed);
  // The paper requires |E_d| > 0; keep at least one tie directed whenever
  // possible so the TDL problem stays well-posed.
  const size_t keep_clamped = std::max<size_t>(keep, num_directed > 0 ? 1 : 0);

  std::vector<uint8_t> keep_flag(num_directed, 0);
  for (size_t i : rng.SampleWithoutReplacement(num_directed, keep_clamped)) {
    keep_flag[i] = 1;
  }

  GraphBuilder builder(g.num_nodes());
  // Hidden ties remembered as (src, dst) = true direction.
  std::vector<Arc> hidden;
  for (size_t i = 0; i < num_directed; ++i) {
    const Arc& a = g.arc(directed[i]);
    if (keep_flag[i]) {
      DD_CHECK(builder.AddTie(a.src, a.dst, TieType::kDirected).ok());
    } else {
      DD_CHECK(builder.AddTie(a.src, a.dst, TieType::kUndirected).ok());
      hidden.push_back(a);
    }
  }
  for (ArcId id : g.bidirectional_arcs()) {
    const Arc& a = g.arc(id);
    if (a.src < a.dst) {  // add each bidirectional tie once
      DD_CHECK(builder.AddTie(a.src, a.dst, TieType::kBidirectional).ok());
    }
  }
  for (ArcId id : g.undirected_arcs()) {
    const Arc& a = g.arc(id);
    if (a.src < a.dst) {
      DD_CHECK(builder.AddTie(a.src, a.dst, TieType::kUndirected).ok());
    }
  }

  HiddenDirectionSplit split{std::move(builder).Build(), {}, {}};
  split.true_label.assign(split.network.num_arcs(), -1.0);
  split.hidden_true_arcs.reserve(hidden.size());
  for (const Arc& h : hidden) {
    const ArcId fwd = split.network.FindArc(h.src, h.dst);
    const ArcId bwd = split.network.FindArc(h.dst, h.src);
    DD_CHECK_NE(fwd, kInvalidArc);
    DD_CHECK_NE(bwd, kInvalidArc);
    split.true_label[fwd] = 1.0;
    split.true_label[bwd] = 0.0;
    split.hidden_true_arcs.push_back(fwd);
  }
  return split;
}

namespace {

// Builds the subnetwork induced by the given kept nodes (marked in `keep`),
// re-densifying node ids.
MixedSocialNetwork InducedSubnetwork(const MixedSocialNetwork& g,
                                     const std::vector<uint8_t>& keep) {
  std::vector<NodeId> remap(g.num_nodes(), kInvalidNode);
  NodeId next = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (keep[u]) remap[u] = next++;
  }
  GraphBuilder builder(next);
  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& a = g.arc(id);
    if (!keep[a.src] || !keep[a.dst]) continue;
    // Add each tie exactly once: directed arcs are unique already; twins of
    // bidirectional/undirected ties are added from the smaller endpoint.
    if (a.type != TieType::kDirected && a.src > a.dst) continue;
    DD_CHECK(builder.AddTie(remap[a.src], remap[a.dst], a.type).ok());
  }
  return std::move(builder).Build();
}

}  // namespace

MixedSocialNetwork TopDegreeSubnetwork(const MixedSocialNetwork& g,
                                       double fraction) {
  DD_CHECK_GT(fraction, 0.0);
  DD_CHECK_LE(fraction, 1.0);
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) order[u] = u;
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    const double da = g.Deg(a), db = g.Deg(b);
    return da != db ? da > db : a < b;
  });
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>(fraction * g.num_nodes()));
  std::vector<uint8_t> keep(g.num_nodes(), 0);
  for (size_t i = 0; i < count; ++i) keep[order[i]] = 1;

  // Drop nodes isolated within the induced set so ids stay meaningful.
  std::vector<uint8_t> connected(g.num_nodes(), 0);
  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& a = g.arc(id);
    if (keep[a.src] && keep[a.dst]) {
      connected[a.src] = 1;
      connected[a.dst] = 1;
    }
  }
  return InducedSubnetwork(g, connected);
}

TieHoldout HoldOutTies(const MixedSocialNetwork& g, double holdout_fraction,
                       util::Rng& rng) {
  DD_CHECK_GE(holdout_fraction, 0.0);
  DD_CHECK_LT(holdout_fraction, 1.0);

  // Enumerate distinct ties as canonical arcs.
  std::vector<Arc> ties;
  ties.reserve(g.num_ties());
  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& a = g.arc(id);
    if (a.type != TieType::kDirected && a.src > a.dst) continue;
    ties.push_back(a);
  }
  DD_CHECK_EQ(ties.size(), g.num_ties());

  const size_t remove_count =
      static_cast<size_t>(holdout_fraction * ties.size());
  std::vector<uint8_t> removed(ties.size(), 0);
  for (size_t i : rng.SampleWithoutReplacement(ties.size(), remove_count)) {
    removed[i] = 1;
  }

  GraphBuilder builder(g.num_nodes());
  std::vector<Arc> removed_ties;
  for (size_t i = 0; i < ties.size(); ++i) {
    if (removed[i]) {
      removed_ties.push_back(ties[i]);
    } else {
      DD_CHECK(builder.AddTie(ties[i].src, ties[i].dst, ties[i].type).ok());
    }
  }
  return TieHoldout{std::move(builder).Build(), std::move(removed_ties)};
}

}  // namespace deepdirect::graph
