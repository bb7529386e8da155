// Tests for the synthetic network generators and the five dataset configs,
// including property sweeps verifying the directionality patterns the
// generator is designed to produce.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "data/datasets.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "graph/triads.h"

namespace deepdirect::data {
namespace {

using graph::Arc;
using graph::ArcId;
using graph::MixedSocialNetwork;
using graph::NodeId;
using graph::TieType;

TEST(GeneratorTest, RespectsNodeCountAndHasNoUndirectedTies) {
  GeneratorConfig config;
  config.num_nodes = 400;
  config.ties_per_node = 4.0;
  config.seed = 1;
  const auto net = GenerateStatusNetwork(config);
  EXPECT_EQ(net.num_nodes(), 400u);
  EXPECT_EQ(net.num_undirected_ties(), 0u);
  EXPECT_GT(net.num_directed_ties(), 0u);
}

TEST(GeneratorTest, DeterministicForSeed) {
  GeneratorConfig config;
  config.num_nodes = 200;
  config.seed = 7;
  const auto a = GenerateStatusNetwork(config);
  const auto b = GenerateStatusNetwork(config);
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  for (ArcId id = 0; id < a.num_arcs(); ++id) {
    EXPECT_EQ(a.arc(id), b.arc(id));
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig config;
  config.num_nodes = 200;
  config.seed = 7;
  const auto a = GenerateStatusNetwork(config);
  config.seed = 8;
  const auto b = GenerateStatusNetwork(config);
  bool different = a.num_arcs() != b.num_arcs();
  if (!different) {
    for (ArcId id = 0; id < a.num_arcs(); ++id) {
      if (!(a.arc(id) == b.arc(id))) {
        different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(different);
}

TEST(GeneratorTest, BidirectionalFractionApproximatelyRespected) {
  GeneratorConfig config;
  config.num_nodes = 1000;
  config.ties_per_node = 5.0;
  config.bidirectional_fraction = 0.4;
  config.seed = 3;
  const auto net = GenerateStatusNetwork(config);
  const double fraction =
      static_cast<double>(net.num_bidirectional_ties()) / net.num_ties();
  EXPECT_NEAR(fraction, 0.4, 0.05);
}

TEST(GeneratorTest, TiesPerNodeApproximatelyRespected) {
  GeneratorConfig config;
  config.num_nodes = 1000;
  config.ties_per_node = 6.0;
  config.seed = 5;
  const auto net = GenerateStatusNetwork(config);
  const double ratio = static_cast<double>(net.num_ties()) / net.num_nodes();
  EXPECT_NEAR(ratio, 6.0, 1.0);
}

TEST(GeneratorTest, NetworkIsConnected) {
  GeneratorConfig config;
  config.num_nodes = 500;
  config.ties_per_node = 4.0;
  config.num_communities = 10;
  config.cross_community_fraction = 0.0;  // ring bridge must still connect
  config.seed = 9;
  const auto net = GenerateStatusNetwork(config);
  size_t components = 0;
  graph::ConnectedComponents(net, &components);
  EXPECT_EQ(components, 1u);
}

TEST(GeneratorTest, DegreeConsistencyPatternPresent) {
  // With low direction noise, directed ties must predominantly point from
  // the lower-degree endpoint to the higher-degree endpoint (Definition 5).
  GeneratorConfig config;
  config.num_nodes = 800;
  config.ties_per_node = 5.0;
  config.direction_noise = 0.05;
  config.status_noise = 0.1;
  config.seed = 11;
  const auto net = GenerateStatusNetwork(config);
  size_t consistent = 0, total = 0;
  for (ArcId id : net.directed_arcs()) {
    const Arc& arc = net.arc(id);
    const double du = net.Deg(arc.src), dv = net.Deg(arc.dst);
    if (du == dv) continue;
    consistent += (du < dv);
    ++total;
  }
  EXPECT_GT(static_cast<double>(consistent) / total, 0.65);
}

TEST(GeneratorTest, TriadStatusConsistencyPatternPresent) {
  // Directed ties should rarely form directed 3-cycles (Definition 6):
  // count cyclic vs acyclic orientations over fully-directed triangles.
  GeneratorConfig config;
  config.num_nodes = 600;
  config.ties_per_node = 5.0;
  config.triangle_closure_prob = 0.4;
  config.bidirectional_fraction = 0.0;
  config.direction_noise = 0.05;
  config.seed = 13;
  const auto net = GenerateStatusNetwork(config);

  size_t cyclic = 0, acyclic = 0;
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    for (NodeId v : net.UndirectedNeighbors(u)) {
      if (v <= u) continue;
      for (NodeId w : net.CommonNeighbors(u, v)) {
        if (w <= v) continue;
        // Orientation of the triangle {u, v, w}: cyclic iff the three
        // directed ties form a rotation.
        auto dir = [&](NodeId x, NodeId y) { return net.HasArc(x, y); };
        const bool uv = dir(u, v), vw = dir(v, w), wu = dir(w, u);
        if ((uv && vw && wu) || (!uv && !vw && !wu)) {
          ++cyclic;
        } else {
          ++acyclic;
        }
      }
    }
  }
  ASSERT_GT(cyclic + acyclic, 50u);
  EXPECT_LT(static_cast<double>(cyclic) / (cyclic + acyclic), 0.15);
}

TEST(GeneratorTest, DirectionNoiseWeakensPattern) {
  GeneratorConfig config;
  config.num_nodes = 600;
  config.ties_per_node = 4.0;
  config.status_noise = 0.1;
  config.seed = 15;

  auto consistency = [](const MixedSocialNetwork& net) {
    size_t consistent = 0, total = 0;
    for (ArcId id : net.directed_arcs()) {
      const Arc& arc = net.arc(id);
      const double du = net.Deg(arc.src), dv = net.Deg(arc.dst);
      if (du == dv) continue;
      consistent += (du < dv);
      ++total;
    }
    return static_cast<double>(consistent) / total;
  };

  config.direction_noise = 0.02;
  const double clean = consistency(GenerateStatusNetwork(config));
  config.direction_noise = 0.4;
  const double noisy = consistency(GenerateStatusNetwork(config));
  EXPECT_GT(clean, noisy + 0.1);
}

TEST(GeneratorTest, CommunitiesReduceCrossTies) {
  GeneratorConfig config;
  config.num_nodes = 600;
  config.ties_per_node = 4.0;
  config.num_communities = 10;
  config.cross_community_fraction = 0.05;
  config.triangle_closure_prob = 0.0;
  config.seed = 17;
  const auto net = GenerateStatusNetwork(config);
  size_t cross = 0, total = 0;
  for (ArcId id = 0; id < net.num_arcs(); ++id) {
    const Arc& arc = net.arc(id);
    if (arc.type != TieType::kDirected && arc.src > arc.dst) continue;
    cross += (arc.src % 10 != arc.dst % 10);
    ++total;
  }
  // Far fewer cross ties than the ~90% a community-blind process gives.
  EXPECT_LT(static_cast<double>(cross) / total, 0.3);
}

TEST(GeneratorTest, StatusesMatchSeededDraws) {
  GeneratorConfig config;
  config.num_nodes = 100;
  config.seed = 19;
  const auto s1 = GeneratorStatuses(config);
  const auto s2 = GeneratorStatuses(config);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 100u);
}

TEST(GeneratorTest, DirectionsFollowStatusOrder) {
  GeneratorConfig config;
  config.num_nodes = 500;
  config.ties_per_node = 4.0;
  config.direction_noise = 0.0;
  config.seed = 21;
  const auto net = GenerateStatusNetwork(config);
  const auto status = GeneratorStatuses(config);
  for (ArcId id : net.directed_arcs()) {
    const Arc& arc = net.arc(id);
    EXPECT_LE(status[arc.src], status[arc.dst]);
  }
}

TEST(DatasetsTest, AllFiveBuildWithExpectedShape) {
  for (DatasetId id : AllDatasets()) {
    const auto config = DatasetConfig(id);
    const auto net = MakeDataset(id);
    EXPECT_EQ(net.num_nodes(), config.num_nodes) << DatasetName(id);
    EXPECT_GT(net.num_directed_ties(), 0u) << DatasetName(id);
    EXPECT_EQ(net.num_undirected_ties(), 0u) << DatasetName(id);
    const double ties_per_node =
        static_cast<double>(net.num_ties()) / net.num_nodes();
    EXPECT_NEAR(ties_per_node, config.ties_per_node,
                0.2 * config.ties_per_node)
        << DatasetName(id);
  }
}

TEST(DatasetsTest, BidirectionalHeavyDatasetsMatchPaper) {
  // Sec. 6.3: over 50% of ties in LiveJournal, Epinions, Slashdot are
  // bidirectional; Twitter and Tencent are predominantly directed.
  for (DatasetId id : {DatasetId::kLiveJournal, DatasetId::kEpinions,
                       DatasetId::kSlashdot}) {
    const auto net = MakeDataset(id);
    EXPECT_GT(static_cast<double>(net.num_bidirectional_ties()) /
                  net.num_ties(),
              0.5)
        << DatasetName(id);
  }
  for (DatasetId id : {DatasetId::kTwitter, DatasetId::kTencent}) {
    const auto net = MakeDataset(id);
    EXPECT_LT(static_cast<double>(net.num_bidirectional_ties()) /
                  net.num_ties(),
              0.5)
        << DatasetName(id);
  }
}

TEST(DatasetsTest, ScaleGrowsNetwork) {
  const auto small = MakeDataset(DatasetId::kTwitter, 0.25);
  const auto large = MakeDataset(DatasetId::kTwitter, 0.5);
  EXPECT_LT(small.num_nodes(), large.num_nodes());
  EXPECT_LT(small.num_ties(), large.num_ties());
}

TEST(DatasetsTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (DatasetId id : AllDatasets()) names.insert(DatasetName(id));
  EXPECT_EQ(names.size(), 5u);
}

// Property sweep: structural invariants hold on every dataset.
class DatasetPropertyTest : public ::testing::TestWithParam<DatasetId> {};

TEST_P(DatasetPropertyTest, StructuralInvariants) {
  const auto net = MakeDataset(GetParam(), /*scale=*/0.3);
  // Twins are involutions; arc counts match tie counts.
  EXPECT_EQ(net.num_arcs(), net.num_directed_ties() +
                                2 * net.num_bidirectional_ties() +
                                2 * net.num_undirected_ties());
  for (ArcId id = 0; id < net.num_arcs(); ++id) {
    const ArcId twin = net.twin(id);
    if (twin != graph::kInvalidArc) {
      EXPECT_EQ(net.twin(twin), id);
    }
  }
  // Clustering is nontrivial (social networks cluster).
  EXPECT_GT(graph::GlobalClusteringCoefficient(net), 0.01);
  // One connected component (BFS-sampled networks are connected).
  size_t components = 0;
  graph::ConnectedComponents(net, &components);
  EXPECT_EQ(components, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetPropertyTest,
                         ::testing::ValuesIn(AllDatasets()),
                         [](const auto& info) {
                           return std::string(DatasetName(info.param));
                         });

}  // namespace
}  // namespace deepdirect::data
