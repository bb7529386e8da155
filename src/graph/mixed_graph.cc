#include "graph/mixed_graph.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "train/parallel.h"

namespace deepdirect::graph {

namespace {

// Fixed shard size for the parallel assembly pass of GraphBuilder::Build.
// The decomposition depends only on the problem size (never the worker
// count), so the built indexes are bit-identical for every `num_threads`.
constexpr size_t kNodeBlock = 1024;

// Packs an unordered node pair into one key (smaller id in the high word so
// keys are unique per pair regardless of insertion order).
uint64_t PairKey(NodeId u, NodeId v) {
  NodeId lo = std::min(u, v);
  NodeId hi = std::max(u, v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

}  // namespace

std::span<const ArcId> MixedSocialNetwork::OutArcs(NodeId u) const {
  DD_CHECK_LT(u, num_nodes_);
  const size_t begin = out_offsets_[u];
  const size_t end = out_offsets_[u + 1];
  if (begin == end) return {};
  return {out_ids_.data() + begin, end - begin};
}

std::span<const ArcId> MixedSocialNetwork::InArcs(NodeId u) const {
  DD_CHECK_LT(u, num_nodes_);
  const size_t begin = in_offsets_[u];
  const size_t end = in_offsets_[u + 1];
  if (begin == end) return {};
  return {in_adj_.data() + begin, end - begin};
}

ArcId MixedSocialNetwork::FindArc(NodeId u, NodeId v) const {
  DD_CHECK_LT(u, num_nodes_);
  DD_CHECK_LT(v, num_nodes_);
  const auto span = OutArcs(u);
  // Arcs in a span are sorted by destination; binary search on dst.
  auto it = std::lower_bound(span.begin(), span.end(), v,
                             [this](ArcId a, NodeId node) {
                               return arcs_[a].dst < node;
                             });
  if (it != span.end() && arcs_[*it].dst == v) return *it;
  return kInvalidArc;
}

double MixedSocialNetwork::DegOut(NodeId u) const {
  DD_CHECK_LT(u, num_nodes_);
  // Every undirected tie incident to u has an arc leaving u (both twins are
  // stored), so OutArcs alone realizes Eq. 1.
  double deg = 0.0;
  for (ArcId a : OutArcs(u)) {
    deg += arcs_[a].type == TieType::kUndirected ? 0.5 : 1.0;
  }
  return deg;
}

double MixedSocialNetwork::DegIn(NodeId u) const {
  DD_CHECK_LT(u, num_nodes_);
  double deg = 0.0;
  for (ArcId a : InArcs(u)) {
    deg += arcs_[a].type == TieType::kUndirected ? 0.5 : 1.0;
  }
  return deg;
}

uint32_t MixedSocialNetwork::TieDegree(ArcId e) const {
  const Arc& a = arc(e);
  uint32_t deg = OutArcCount(a.dst);
  if (HasArc(a.dst, a.src)) --deg;  // exclude the return arc (v, u)
  return deg;
}

std::span<const NodeId> MixedSocialNetwork::UndirectedNeighbors(
    NodeId u) const {
  DD_CHECK_LT(u, num_nodes_);
  const size_t begin = und_offsets_[u];
  const size_t end = und_offsets_[u + 1];
  if (begin == end) return {};
  return {und_adj_.data() + begin, end - begin};
}

std::vector<NodeId> MixedSocialNetwork::CommonNeighbors(NodeId u,
                                                        NodeId v) const {
  std::vector<NodeId> out;
  CommonNeighbors(u, v, out);
  return out;
}

void MixedSocialNetwork::CommonNeighbors(NodeId u, NodeId v,
                                         std::vector<NodeId>& out) const {
  const auto nu = UndirectedNeighbors(u);
  const auto nv = UndirectedNeighbors(v);
  out.clear();
  std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                        std::back_inserter(out));
}

GraphBuilder::GraphBuilder(size_t num_nodes) : num_nodes_(num_nodes) {}

util::Status GraphBuilder::AddTie(NodeId u, NodeId v, TieType type) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    std::ostringstream os;
    os << "tie (" << u << ", " << v << ") out of node range [0, "
       << num_nodes_ << ")";
    return util::Status::InvalidArgument(os.str());
  }
  if (u == v) {
    std::ostringstream os;
    os << "self-loop on node " << u << " is not a social tie";
    return util::Status::InvalidArgument(os.str());
  }
  if (!pair_keys_.insert(PairKey(u, v)).second) {
    std::ostringstream os;
    os << "duplicate tie over pair {" << u << ", " << v << "}";
    return util::Status::InvalidArgument(os.str());
  }
  ties_.push_back({u, v, type});
  return util::Status::OK();
}

MixedSocialNetwork GraphBuilder::Build() && {
  MixedSocialNetwork g;
  g.num_nodes_ = num_nodes_;
  g.num_ties_ = ties_.size();

  // Expand ties into arcs.
  g.arcs_.reserve(ties_.size() * 2);
  for (const PendingTie& t : ties_) {
    g.arcs_.push_back({t.u, t.v, t.type});
    if (t.type != TieType::kDirected) {
      g.arcs_.push_back({t.v, t.u, t.type});
    }
    switch (t.type) {
      case TieType::kDirected:
        ++g.num_directed_ties_;
        break;
      case TieType::kBidirectional:
        ++g.num_bidirectional_ties_;
        break;
      case TieType::kUndirected:
        ++g.num_undirected_ties_;
        break;
    }
  }

  // Canonical arc order: (src, dst).
  std::sort(g.arcs_.begin(), g.arcs_.end(), [](const Arc& a, const Arc& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });

  const size_t num_arcs = g.arcs_.size();
  g.out_ids_.resize(num_arcs);
  std::iota(g.out_ids_.begin(), g.out_ids_.end(), 0);

  // Out CSR offsets.
  g.out_offsets_.assign(num_nodes_ + 1, 0);
  for (const Arc& a : g.arcs_) ++g.out_offsets_[a.src + 1];
  for (size_t i = 1; i <= num_nodes_; ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
  }

  // In CSR.
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Arc& a : g.arcs_) ++g.in_offsets_[a.dst + 1];
  for (size_t i = 1; i <= num_nodes_; ++i) {
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }
  g.in_adj_.resize(num_arcs);
  {
    std::vector<size_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (ArcId id = 0; id < num_arcs; ++id) {
      g.in_adj_[cursor[g.arcs_[id].dst]++] = id;
    }
  }

  for (ArcId id = 0; id < num_arcs; ++id) {
    switch (g.arcs_[id].type) {
      case TieType::kDirected:
        g.directed_arcs_.push_back(id);
        break;
      case TieType::kBidirectional:
        g.bidirectional_arcs_.push_back(id);
        break;
      case TieType::kUndirected:
        g.undirected_arcs_.push_back(id);
        break;
    }
  }

  // Undirected neighbor lists (sorted, distinct), built in two counting
  // passes straight into the final CSR arrays — no per-node vectors.
  //
  // A pair hosts at most one tie, so the out- and in-neighbor lists of a
  // node overlap exactly on its non-directed arcs (each such out arc
  // (u, v) has the twin (v, u) contributing the same neighbor v to the in
  // list). Hence |distinct| = out + in − #non-directed-out.
  g.und_offsets_.assign(num_nodes_ + 1, 0);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    size_t count = g.OutArcCount(u) + g.InArcCount(u);
    for (ArcId a : g.OutArcs(u)) {
      if (g.arcs_[a].type != TieType::kDirected) --count;
    }
    g.und_offsets_[u + 1] = g.und_offsets_[u] + count;
  }
  // Pass 2: merge the sorted out-dst and in-src lists of each node into its
  // final CSR slice. Out arcs are sorted by dst; in_adj_ was filled in
  // ascending arc-id = ascending src order, so both inputs are sorted.
  // Nodes shard into fixed blocks with disjoint output regions.
  g.und_adj_.resize(g.und_offsets_[num_nodes_]);
  train::ParallelBlocks(
      num_nodes_, kNodeBlock, num_threads_,
      [&](size_t, size_t begin, size_t end) {
        for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
          const auto out_arcs = g.OutArcs(u);
          const auto in_arcs = g.InArcs(u);
          size_t i = 0, j = 0;
          size_t w = g.und_offsets_[u];
          while (i < out_arcs.size() || j < in_arcs.size()) {
            NodeId next;
            if (j >= in_arcs.size()) {
              next = g.arcs_[out_arcs[i++]].dst;
            } else if (i >= out_arcs.size()) {
              next = g.arcs_[in_arcs[j++]].src;
            } else {
              const NodeId a = g.arcs_[out_arcs[i]].dst;
              const NodeId b = g.arcs_[in_arcs[j]].src;
              next = std::min(a, b);
              if (a <= next) ++i;
              if (b <= next) ++j;
            }
            g.und_adj_[w++] = next;
          }
          DD_CHECK_EQ(w, g.und_offsets_[u + 1]);
        }
      });

  return g;
}

}  // namespace deepdirect::graph
