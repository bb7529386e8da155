// Unit tests for MixedSocialNetwork / GraphBuilder, anchored on the paper's
// Fig. 1 example network.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/mixed_graph.h"
#include "util/random.h"

namespace deepdirect::graph {
namespace {

// The mixed social network of Fig. 1 with a..j mapped to 0..9:
//   E_d = {(d,a),(c,f),(e,d),(f,e),(h,f),(i,f),(f,j)}
//   E_b = {(b,f),(d,f),(e,g),(e,h)}
//   E_u = {(b,d),(c,j),(h,i)}
constexpr NodeId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5, g = 6, h = 7,
                 i = 8, j = 9;

MixedSocialNetwork Fig1Network() {
  GraphBuilder builder(10);
  for (auto [u, v] : {std::pair<NodeId, NodeId>{d, a}, {c, f}, {e, d},
                      {f, e}, {h, f}, {i, f}, {f, j}}) {
    EXPECT_TRUE(builder.AddTie(u, v, TieType::kDirected).ok());
  }
  for (auto [u, v] :
       {std::pair<NodeId, NodeId>{b, f}, {d, f}, {e, g}, {e, h}}) {
    EXPECT_TRUE(builder.AddTie(u, v, TieType::kBidirectional).ok());
  }
  for (auto [u, v] : {std::pair<NodeId, NodeId>{b, d}, {c, j}, {h, i}}) {
    EXPECT_TRUE(builder.AddTie(u, v, TieType::kUndirected).ok());
  }
  return std::move(builder).Build();
}

TEST(GraphBuilderTest, RejectsOutOfRangeNodes) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddTie(0, 3, TieType::kDirected).ok());
  EXPECT_FALSE(builder.AddTie(5, 1, TieType::kUndirected).ok());
}

TEST(GraphBuilderTest, RejectsSelfLoops) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.AddTie(1, 1, TieType::kDirected).ok());
}

TEST(GraphBuilderTest, RejectsDuplicatePairsAcrossTypes) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddTie(0, 1, TieType::kDirected).ok());
  // Same pair in any orientation or type is a conflict (Definition 1:
  // for (u,v) in E_d, (v,u) must not be in E).
  EXPECT_FALSE(builder.AddTie(0, 1, TieType::kDirected).ok());
  EXPECT_FALSE(builder.AddTie(1, 0, TieType::kDirected).ok());
  EXPECT_FALSE(builder.AddTie(1, 0, TieType::kBidirectional).ok());
  EXPECT_FALSE(builder.AddTie(0, 1, TieType::kUndirected).ok());
}

TEST(GraphBuilderTest, EmptyNetworkIsValid) {
  GraphBuilder builder(5);
  const MixedSocialNetwork net = std::move(builder).Build();
  EXPECT_EQ(net.num_nodes(), 5u);
  EXPECT_EQ(net.num_arcs(), 0u);
  EXPECT_EQ(net.num_ties(), 0u);
}

TEST(Fig1Test, TieAndArcCounts) {
  const auto net = Fig1Network();
  EXPECT_EQ(net.num_nodes(), 10u);
  EXPECT_EQ(net.num_ties(), 14u);
  EXPECT_EQ(net.num_directed_ties(), 7u);
  EXPECT_EQ(net.num_bidirectional_ties(), 4u);
  EXPECT_EQ(net.num_undirected_ties(), 3u);
  // Arcs: 7 directed + 2*(4+3) twins = 21.
  EXPECT_EQ(net.num_arcs(), 21u);
  EXPECT_EQ(net.directed_arcs().size(), 7u);
  EXPECT_EQ(net.bidirectional_arcs().size(), 8u);
  EXPECT_EQ(net.undirected_arcs().size(), 6u);
}

TEST(Fig1Test, FindArcAndTwins) {
  const auto net = Fig1Network();
  // Directed tie d->a exists only forward.
  const ArcId da = net.FindArc(d, a);
  ASSERT_NE(da, kInvalidArc);
  EXPECT_EQ(net.FindArc(a, d), kInvalidArc);

  // Bidirectional tie b-f has both arcs, each of the tie's type.
  const ArcId bf = net.FindArc(b, f);
  const ArcId fb = net.FindArc(f, b);
  ASSERT_NE(bf, kInvalidArc);
  ASSERT_NE(fb, kInvalidArc);
  EXPECT_NE(bf, fb);
  EXPECT_EQ(net.arc(bf).type, TieType::kBidirectional);
  EXPECT_EQ(net.arc(fb).type, TieType::kBidirectional);

  // Undirected tie h-i has both arcs too.
  const ArcId hi = net.FindArc(h, i);
  const ArcId ih = net.FindArc(i, h);
  ASSERT_NE(hi, kInvalidArc);
  ASSERT_NE(ih, kInvalidArc);
  EXPECT_EQ(net.arc(hi).type, TieType::kUndirected);
  EXPECT_EQ(net.arc(ih).type, TieType::kUndirected);

  // Nonexistent pair.
  EXPECT_EQ(net.FindArc(a, j), kInvalidArc);
  EXPECT_FALSE(net.HasArc(a, j));
}

TEST(Fig1Test, OutArcsSortedByDestination) {
  const auto net = Fig1Network();
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    const auto arcs = net.OutArcs(u);
    for (size_t k = 1; k < arcs.size(); ++k) {
      EXPECT_LT(net.arc(arcs[k - 1]).dst, net.arc(arcs[k]).dst);
      EXPECT_EQ(net.arc(arcs[k]).src, u);
    }
  }
}

TEST(Fig1Test, InArcsTargetCorrectNode) {
  const auto net = Fig1Network();
  size_t total = 0;
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    for (ArcId id : net.InArcs(u)) {
      EXPECT_EQ(net.arc(id).dst, u);
    }
    total += net.InArcCount(u);
  }
  EXPECT_EQ(total, net.num_arcs());
}

TEST(Fig1Test, DegreeSemanticsOfEq1And2) {
  const auto net = Fig1Network();
  // Node f: out = 2 directed (f->e, f->j) + 2 bidirectional (f-b, f-d) = 4;
  // in = 3 directed (c->f, h->f, i->f) + 2 bidirectional = 5.
  EXPECT_DOUBLE_EQ(net.DegOut(f), 4.0);
  EXPECT_DOUBLE_EQ(net.DegIn(f), 5.0);
  EXPECT_DOUBLE_EQ(net.Deg(f), 9.0);
  // Node b: 1 bidirectional + 1 undirected -> out 1.5, in 1.5.
  EXPECT_DOUBLE_EQ(net.DegOut(b), 1.5);
  EXPECT_DOUBLE_EQ(net.DegIn(b), 1.5);
  // Node a: only receives d->a.
  EXPECT_DOUBLE_EQ(net.DegOut(a), 0.0);
  EXPECT_DOUBLE_EQ(net.DegIn(a), 1.0);
  // Node g: one bidirectional tie with e.
  EXPECT_DOUBLE_EQ(net.DegOut(g), 1.0);
  EXPECT_DOUBLE_EQ(net.DegIn(g), 1.0);
}

TEST(Fig1Test, TieDegreeAndConnectedTies) {
  const auto net = Fig1Network();
  const auto connected_ties = [&](ArcId e) {
    std::vector<ArcId> out;
    net.ForEachConnectedTie(e, [&](ArcId c) { out.push_back(c); });
    return out;
  };
  // Arc (d, a): a has no outgoing arcs, so no connected ties.
  EXPECT_EQ(net.TieDegree(net.FindArc(d, a)), 0u);
  EXPECT_TRUE(connected_ties(net.FindArc(d, a)).empty());

  // Arc (c, f): f's out arcs are (f,b),(f,d),(f,e),(f,j); none returns to c.
  const ArcId cf = net.FindArc(c, f);
  EXPECT_EQ(net.TieDegree(cf), 4u);
  const auto connected = connected_ties(cf);
  EXPECT_EQ(connected.size(), 4u);
  std::set<NodeId> heads;
  for (ArcId id : connected) {
    EXPECT_EQ(net.arc(id).src, f);
    heads.insert(net.arc(id).dst);
  }
  EXPECT_EQ(heads, (std::set<NodeId>{b, d, e, j}));

  // Arc (b, f): the return arc (f, b) must be excluded (Definition 4
  // requires u1 != v2).
  const ArcId bf = net.FindArc(b, f);
  EXPECT_EQ(net.TieDegree(bf), 3u);
  const auto connected_bf = connected_ties(bf);
  EXPECT_EQ(connected_bf.size(), 3u);
  for (ArcId id : connected_bf) {
    EXPECT_NE(net.arc(id).dst, b);
  }
}

TEST(Fig1Test, UndirectedNeighborsSortedDistinct) {
  const auto net = Fig1Network();
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    const auto neighbors = net.UndirectedNeighbors(u);
    for (size_t k = 1; k < neighbors.size(); ++k) {
      EXPECT_LT(neighbors[k - 1], neighbors[k]);
    }
  }
  const auto nf = net.UndirectedNeighbors(f);
  EXPECT_EQ(std::set<NodeId>(nf.begin(), nf.end()),
            (std::set<NodeId>{b, c, d, e, h, i, j}));
  EXPECT_EQ(net.UndirectedDegree(f), 7u);
}

TEST(Fig1Test, CommonNeighbors) {
  const auto net = Fig1Network();
  // h and i share exactly f.
  EXPECT_EQ(net.CommonNeighbors(h, i), std::vector<NodeId>{f});
  // b and d share f (via bidirectional ties).
  EXPECT_EQ(net.CommonNeighbors(b, d), std::vector<NodeId>{f});
  // a and g share nothing.
  EXPECT_TRUE(net.CommonNeighbors(a, g).empty());
}

TEST(GraphInvariantTest, OnlyDirectedArcsLackAReverse) {
  const auto net = Fig1Network();
  for (ArcId id = 0; id < net.num_arcs(); ++id) {
    const Arc& arc = net.arc(id);
    const ArcId reverse = net.FindArc(arc.dst, arc.src);
    if (reverse == kInvalidArc) {
      EXPECT_EQ(arc.type, TieType::kDirected);
    } else {
      const Arc& back = net.arc(reverse);
      EXPECT_NE(arc.type, TieType::kDirected);
      EXPECT_EQ(back.type, arc.type);
      EXPECT_EQ(net.FindArc(back.dst, back.src), id);
    }
  }
}

TEST(GraphInvariantTest, OutArcCountsSumToArcs) {
  const auto net = Fig1Network();
  size_t total = 0;
  for (NodeId u = 0; u < net.num_nodes(); ++u) total += net.OutArcCount(u);
  EXPECT_EQ(total, net.num_arcs());
}

TEST(GraphInvariantTest, DegreeSumsConsistent) {
  // Σ deg_out = Σ deg_in = |E_d| + 2|E_b| + |E_u| in tie counts (undirected
  // ties contribute 1/2 to each side at both endpoints -> 1 total per side).
  const auto net = Fig1Network();
  double out_sum = 0.0, in_sum = 0.0;
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    out_sum += net.DegOut(u);
    in_sum += net.DegIn(u);
  }
  const double expected = 7 + 2.0 * 4 + 3;
  EXPECT_DOUBLE_EQ(out_sum, expected);
  EXPECT_DOUBLE_EQ(in_sum, expected);
}

TEST(GraphInvariantTest, BuildMultiThreadedDeterministic) {
  // The parallel Build must produce exactly the network the serial build
  // does: same arcs, same sorted undirected adjacency.
  const auto make = [](size_t num_threads) {
    util::Rng rng(101);
    GraphBuilder builder(200);
    for (int tie = 0; tie < 600; ++tie) {
      const NodeId u = static_cast<NodeId>(rng.NextIndex(200));
      const NodeId v = static_cast<NodeId>(rng.NextIndex(200));
      if (u == v) continue;
      const auto type = static_cast<TieType>(rng.NextIndex(3));
      // Duplicate pairs are rejected; that is fine here.
      (void)builder.AddTie(u, v, type);
    }
    builder.SetNumThreads(num_threads);
    return std::move(builder).Build();
  };
  const auto serial = make(1);
  const auto parallel = make(4);

  ASSERT_EQ(serial.num_arcs(), parallel.num_arcs());
  for (ArcId id = 0; id < serial.num_arcs(); ++id) {
    EXPECT_EQ(serial.arc(id), parallel.arc(id));
  }
  for (NodeId u = 0; u < serial.num_nodes(); ++u) {
    const auto sn = serial.UndirectedNeighbors(u);
    const auto pn = parallel.UndirectedNeighbors(u);
    ASSERT_EQ(sn.size(), pn.size()) << "node " << u;
    EXPECT_TRUE(std::equal(sn.begin(), sn.end(), pn.begin()))
        << "node " << u;
  }
}

}  // namespace
}  // namespace deepdirect::graph
