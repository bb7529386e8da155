#include "core/applications.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "ml/metrics.h"

namespace deepdirect::core {

using graph::Arc;
using graph::ArcId;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

std::vector<DirectionPrediction> DiscoverDirections(
    const MixedSocialNetwork& g, const DirectionalityModel& model) {
  std::vector<DirectionPrediction> predictions;
  predictions.reserve(g.num_undirected_ties());
  for (ArcId id : g.undirected_arcs()) {
    const Arc& a = g.arc(id);
    if (a.src > a.dst) continue;  // evaluate each tie once
    const double forward = model.Directionality(a.src, a.dst);
    const double backward = model.Directionality(a.dst, a.src);
    if (forward >= backward) {
      predictions.push_back({a.src, a.dst, forward});
    } else {
      predictions.push_back({a.dst, a.src, backward});
    }
  }
  return predictions;
}

double DirectionDiscoveryAccuracy(const graph::HiddenDirectionSplit& split,
                                  const DirectionalityModel& model) {
  const MixedSocialNetwork& g = split.network;
  double correct = 0.0;
  size_t total = 0;
  for (ArcId true_arc : split.hidden_true_arcs) {
    const Arc& a = g.arc(true_arc);
    const double forward = model.Directionality(a.src, a.dst);
    const double backward = model.Directionality(a.dst, a.src);
    // Eq. 28 predicts src -> dst iff d(src,dst) >= d(dst,src). The stored
    // arc is the true direction, so strict inequality is correct; exact
    // ties earn half credit — Eq. 28's ">=" would otherwise award a model
    // with d(u,v) ≡ d(v,u) (e.g. a symmetric edge operator) a perfect
    // score purely because the evaluator queries the true orientation
    // first.
    if (forward > backward) {
      correct += 1.0;
    } else if (forward == backward) {
      correct += 0.5;
    }
    ++total;
  }
  return total == 0 ? 0.0 : correct / static_cast<double>(total);
}

WeightedAdjacency::WeightedAdjacency(const MixedSocialNetwork& g,
                                     const DirectionalityModel* model) {
  const size_t n = g.num_nodes();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  out_sums_.assign(n, 0.0);
  in_sums_.assign(n, 0.0);

  // One weighted entry per arc of g (arcs already cover both directions of
  // bidirectional/undirected ties).
  auto arc_weight = [&](const Arc& a) -> double {
    switch (a.type) {
      case TieType::kDirected:
        return 1.0;
      case TieType::kBidirectional:
      case TieType::kUndirected:
        return model != nullptr ? model->Directionality(a.src, a.dst)
                                : (a.type == TieType::kBidirectional ? 1.0
                                                                     : 0.5);
    }
    return 0.0;
  };

  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& a = g.arc(id);
    ++out_offsets_[a.src + 1];
    ++in_offsets_[a.dst + 1];
  }
  for (size_t i = 1; i <= n; ++i) {
    out_offsets_[i] += out_offsets_[i - 1];
    in_offsets_[i] += in_offsets_[i - 1];
  }
  out_entries_.resize(g.num_arcs());
  in_entries_.resize(g.num_arcs());
  std::vector<size_t> out_cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  std::vector<size_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& a = g.arc(id);
    const double w = arc_weight(a);
    out_entries_[out_cursor[a.src]++] = {a.dst, w};
    in_entries_[in_cursor[a.dst]++] = {a.src, w};
    out_sums_[a.src] += w;
    in_sums_[a.dst] += w;
  }
  // Arcs are globally sorted by (src, dst), so each out row is sorted by
  // destination already; sort in rows by source for the merge in
  // PathWeight.
  for (NodeId v = 0; v < n; ++v) {
    std::sort(in_entries_.begin() + in_offsets_[v],
              in_entries_.begin() + in_offsets_[v + 1],
              [](const Entry& x, const Entry& y) { return x.node < y.node; });
  }
}

double WeightedAdjacency::PathWeight(NodeId u, NodeId v) const {
  DD_CHECK_LT(u, num_nodes());
  DD_CHECK_LT(v, num_nodes());
  // Merge u's out row (sorted by node) with v's in row (sorted by node).
  size_t i = out_offsets_[u];
  const size_t i_end = out_offsets_[u + 1];
  size_t j = in_offsets_[v];
  const size_t j_end = in_offsets_[v + 1];
  double total = 0.0;
  while (i < i_end && j < j_end) {
    const NodeId a = out_entries_[i].node;
    const NodeId b = in_entries_[j].node;
    if (a < b) {
      ++i;
    } else if (b < a) {
      ++j;
    } else {
      total += out_entries_[i].weight * in_entries_[j].weight;
      ++i;
      ++j;
    }
  }
  return total;
}

double WeightedAdjacency::JaccardScore(NodeId u, NodeId v) const {
  const double denom = OutSum(u) + InSum(v);
  if (denom <= 0.0) return 0.0;
  return PathWeight(u, v) / denom;
}

const char* LinkScoreTypeToString(LinkScoreType type) {
  switch (type) {
    case LinkScoreType::kJaccard:
      return "jaccard";
    case LinkScoreType::kCommonNeighbors:
      return "common-neighbors";
    case LinkScoreType::kAdamicAdar:
      return "adamic-adar";
    case LinkScoreType::kResourceAllocation:
      return "resource-allocation";
  }
  return "unknown";
}

double LinkScore(const WeightedAdjacency& adjacency, LinkScoreType type,
                 NodeId u, NodeId v) {
  switch (type) {
    case LinkScoreType::kJaccard:
      return adjacency.JaccardScore(u, v);
    case LinkScoreType::kCommonNeighbors:
      return adjacency.PathWeight(u, v);
    case LinkScoreType::kAdamicAdar:
      return adjacency.WeightedPathSum(u, v, [&adjacency](NodeId k) {
        return 1.0 / std::log(2.0 + adjacency.Strength(k));
      });
    case LinkScoreType::kResourceAllocation:
      return adjacency.WeightedPathSum(u, v, [&adjacency](NodeId k) {
        return 1.0 / (1.0 + adjacency.Strength(k));
      });
  }
  return 0.0;
}

LinkPredictionResult RunLinkPrediction(const graph::TieHoldout& holdout,
                                       const DirectionalityModel* model,
                                       const LinkPredictionConfig& config) {
  const MixedSocialNetwork& reduced = holdout.network;
  WeightedAdjacency adjacency(reduced, model);

  // Removed ties keyed two ways: the unordered pair, and the oriented pair
  // for the ordered protocol.
  auto pair_key = [](NodeId a, NodeId b) {
    const NodeId lo = std::min(a, b);
    const NodeId hi = std::max(a, b);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  };
  auto ordered_key = [](NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  std::unordered_set<uint64_t> positive_pairs;       // unordered
  std::unordered_set<uint64_t> positive_oriented;    // oriented positives
  std::unordered_set<uint64_t> excluded_oriented;    // reverse of directed
  positive_pairs.reserve(holdout.removed_ties.size() * 2);
  for (const Arc& removed : holdout.removed_ties) {
    positive_pairs.insert(pair_key(removed.src, removed.dst));
    if (removed.type == TieType::kDirected) {
      // Ordered protocol: the true orientation is the positive; the
      // reverse is excluded (the pair does connect, just not that way).
      positive_oriented.insert(ordered_key(removed.src, removed.dst));
      excluded_oriented.insert(ordered_key(removed.dst, removed.src));
    } else {
      // Removed bidirectional/undirected ties carry no orientation target;
      // both orientations are excluded from the ordered candidate set.
      excluded_oriented.insert(ordered_key(removed.src, removed.dst));
      excluded_oriented.insert(ordered_key(removed.dst, removed.src));
    }
  }

  // Candidate pairs: nodes at undirected distance exactly 2 in the reduced
  // network (2-hop neighbors, not directly connected).
  std::vector<double> scores;
  std::vector<int> labels;
  size_t num_positive_labels = 0;
  util::Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);

  std::unordered_set<uint64_t> seen_pairs;
  for (NodeId u = 0; u < reduced.num_nodes(); ++u) {
    for (NodeId w : reduced.UndirectedNeighbors(u)) {
      for (NodeId v : reduced.UndirectedNeighbors(w)) {
        if (v == u) continue;
        if (u > v) continue;  // visit each unordered pair once
        if (reduced.HasArc(u, v) || reduced.HasArc(v, u)) continue;
        if (!seen_pairs.insert(pair_key(u, v)).second) continue;
        if (config.ordered) {
          // Both orientations, each a separate candidate (unless excluded
          // as the reverse of a removed directed tie).
          for (const auto& [a, b] :
               {std::pair<NodeId, NodeId>{u, v}, {v, u}}) {
            if (excluded_oriented.contains(ordered_key(a, b))) continue;
            const int label =
                positive_oriented.contains(ordered_key(a, b)) ? 1 : 0;
            scores.push_back(LinkScore(adjacency, config.score, a, b));
            labels.push_back(label);
            num_positive_labels += static_cast<size_t>(label);
          }
        } else {
          const int label = positive_pairs.contains(pair_key(u, v)) ? 1 : 0;
          // Unordered: score by the better orientation.
          const double score =
              std::max(LinkScore(adjacency, config.score, u, v),
                       LinkScore(adjacency, config.score, v, u));
          scores.push_back(score);
          labels.push_back(label);
          num_positive_labels += static_cast<size_t>(label);
        }
      }
    }
  }

  // Subsample negatives if the candidate set exceeds the cap (positives are
  // always kept so AUC stays estimable).
  if (scores.size() > config.max_candidates) {
    std::vector<double> kept_scores;
    std::vector<int> kept_labels;
    const double keep_prob =
        static_cast<double>(config.max_candidates) /
        static_cast<double>(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      if (labels[i] == 1 || rng.NextBool(keep_prob)) {
        kept_scores.push_back(scores[i]);
        kept_labels.push_back(labels[i]);
      }
    }
    scores.swap(kept_scores);
    labels.swap(kept_labels);
  }

  LinkPredictionResult result;
  result.auc = ml::AreaUnderRoc(scores, labels);
  result.num_candidates = scores.size();
  result.num_positives = num_positive_labels;
  return result;
}

}  // namespace deepdirect::core
