// Tests for the DeepDirect model (Sec. 4): training mechanics, accuracy,
// determinism, and configuration behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "obs/metrics.h"

namespace deepdirect::core {
namespace {

using graph::MixedSocialNetwork;

// A small, easy network and split shared by several tests.
graph::HiddenDirectionSplit EasySplit(uint64_t seed = 5,
                                      double directed_fraction = 0.3) {
  data::GeneratorConfig gen;
  gen.num_nodes = 400;
  gen.ties_per_node = 4.0;
  gen.direction_noise = 0.05;
  gen.status_noise = 0.1;
  gen.bidirectional_fraction = 0.2;
  gen.seed = seed;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(seed + 100);
  return graph::HideDirections(net, directed_fraction, rng);
}

DeepDirectConfig FastConfig() {
  DeepDirectConfig config;
  config.dimensions = 32;
  config.epochs = 3.0;
  config.seed = 21;
  return config;
}

TEST(DeepDirectTest, TrainsAndPredictsProbabilities) {
  const auto split = EasySplit();
  const auto model = DeepDirectModel::Train(split.network, FastConfig());
  EXPECT_EQ(model->name(), "DeepDirect");
  EXPECT_EQ(model->embeddings().rows(), model->index().num_arcs());
  EXPECT_EQ(model->embeddings().cols(), 32u);
  for (size_t e = 0; e < model->index().num_arcs(); e += 7) {
    const auto [u, v] = model->index().ArcAt(e);
    const double d = model->Directionality(u, v);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(DeepDirectTest, EmbeddingsAreFinite) {
  const auto split = EasySplit();
  const auto model = DeepDirectModel::Train(split.network, FastConfig());
  for (float v : model->embeddings().data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  for (double w : model->e_step_weights()) EXPECT_TRUE(std::isfinite(w));
  EXPECT_TRUE(std::isfinite(model->e_step_bias()));
}

TEST(DeepDirectTest, RecoversHiddenDirectionsWellAboveChance) {
  const auto split = EasySplit();
  DeepDirectConfig config = FastConfig();
  config.dimensions = 64;
  config.epochs = 5.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  const double accuracy = DirectionDiscoveryAccuracy(split, *model);
  EXPECT_GT(accuracy, 0.65);
}

TEST(DeepDirectTest, FitsTrainingLabels) {
  const auto split = EasySplit();
  DeepDirectConfig config = FastConfig();
  config.epochs = 5.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  // On labeled (directed) training ties the model should mostly agree with
  // the labels it trained on.
  const auto& index = model->index();
  size_t correct = 0, total = 0;
  for (size_t e = 0; e < index.num_arcs(); ++e) {
    if (!index.IsLabeled(e)) continue;
    const auto [u, v] = index.ArcAt(e);
    const double prediction = model->Directionality(u, v);
    correct += (prediction >= 0.5) == (index.Label(e) == 1.0);
    ++total;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(correct) / total, 0.7);
}

TEST(DeepDirectTest, DeterministicForSeed) {
  const auto split = EasySplit();
  const auto a = DeepDirectModel::Train(split.network, FastConfig());
  const auto b = DeepDirectModel::Train(split.network, FastConfig());
  const auto& da = a->embeddings().data();
  const auto& db = b->embeddings().data();
  ASSERT_EQ(da.size(), db.size());
  for (size_t i = 0; i < da.size(); ++i) EXPECT_EQ(da[i], db[i]);
  EXPECT_EQ(DirectionDiscoveryAccuracy(split, *a),
            DirectionDiscoveryAccuracy(split, *b));
}

TEST(DeepDirectTest, MultiThreadedTrainingStaysAccurate) {
  // Hogwild workers race on the shared matrices, so the result is not
  // bit-reproducible — but the model quality must hold up.
  const auto split = EasySplit();
  DeepDirectConfig config = FastConfig();
  config.dimensions = 64;
  config.epochs = 5.0;
  config.num_threads = 4;
  config.d_step.num_threads = 4;
  const auto model = DeepDirectModel::Train(split.network, config);
  for (float v : model->embeddings().data()) ASSERT_TRUE(std::isfinite(v));
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.65);
}

TEST(DeepDirectTest, MultiThreadedAccuracyWithinSerialSeedSpread) {
  // Hogwild must not cost accuracy beyond what a change of trainer seed
  // costs serially: over trainer seeds 1–5, the mean accuracy at nt=2 and
  // at nt=4 must not fall below the nt=1 mean minus the nt=1 range.
  const auto split = EasySplit();
  auto accuracies = [&](size_t threads) {
    std::vector<double> out;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      DeepDirectConfig config = FastConfig();
      config.seed = seed;
      config.num_threads = threads;
      config.d_step.num_threads = threads;
      const auto model = DeepDirectModel::Train(split.network, config);
      out.push_back(DirectionDiscoveryAccuracy(split, *model));
    }
    return out;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  const std::vector<double> serial = accuracies(1);
  const auto [lo, hi] = std::minmax_element(serial.begin(), serial.end());
  const double bound = mean(serial) - (*hi - *lo);
  for (const size_t threads : {size_t{2}, size_t{4}}) {
    EXPECT_GE(mean(accuracies(threads)), bound) << threads << " workers";
  }
}

TEST(DeepDirectTest, SeedChangesEmbedding) {
  const auto split = EasySplit();
  auto config = FastConfig();
  const auto a = DeepDirectModel::Train(split.network, config);
  config.seed = 99;
  const auto b = DeepDirectModel::Train(split.network, config);
  bool any_diff = false;
  const auto& da = a->embeddings().data();
  const auto& db = b->embeddings().data();
  for (size_t i = 0; i < da.size() && !any_diff; ++i) {
    any_diff = (da[i] != db[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(DeepDirectTest, PairedPredictionsAreComparable) {
  // For most hidden ties, d(u,v) and d(v,u) should disagree enough to make
  // a decision (no degenerate constant output).
  const auto split = EasySplit();
  const auto model = DeepDirectModel::Train(split.network, FastConfig());
  size_t decisive = 0;
  for (graph::ArcId id : split.hidden_true_arcs) {
    const auto& arc = split.network.arc(id);
    const double fwd = model->Directionality(arc.src, arc.dst);
    const double bwd = model->Directionality(arc.dst, arc.src);
    decisive += std::abs(fwd - bwd) > 1e-6;
  }
  EXPECT_GT(static_cast<double>(decisive) / split.hidden_true_arcs.size(),
            0.9);
}

TEST(DeepDirectTest, ZeroEpochsStillYieldsValidModel) {
  const auto split = EasySplit();
  auto config = FastConfig();
  config.epochs = 0.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  const auto [u, v] = model->index().ArcAt(0);
  const double d = model->Directionality(u, v);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(DeepDirectTest, AlphaBetaZeroIsPureTopology) {
  const auto split = EasySplit();
  auto config = FastConfig();
  config.alpha = 0.0;
  config.beta = 0.0;
  config.dimensions = 64;
  config.epochs = 5.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  // With no classifier losses the E-Step classifier must stay at zero.
  for (double w : model->e_step_weights()) EXPECT_DOUBLE_EQ(w, 0.0);
  EXPECT_DOUBLE_EQ(model->e_step_bias(), 0.0);
  // The D-Step still learns from labels, so accuracy beats chance.
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.55);
}

TEST(DeepDirectTest, ClassifierLossesMoveEStepParameters) {
  const auto split = EasySplit();
  auto config = FastConfig();
  config.alpha = 5.0;
  config.beta = 1.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  double norm = 0.0;
  for (double w : model->e_step_weights()) norm += w * w;
  EXPECT_GT(norm, 0.0);
}

TEST(DeepDirectTest, PatternLossAloneProducesSignal) {
  // β > 0, α = 0: pseudo-labels alone should beat chance clearly on a
  // pattern-consistent network.
  const auto split = EasySplit();
  auto config = FastConfig();
  config.alpha = 0.0;
  config.beta = 1.0;
  config.epochs = 5.0;
  const auto model = DeepDirectModel::Train(split.network, config);
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.6);
}

TEST(DeepDirectTest, TieDegreeWeightingAblationRuns) {
  const auto split = EasySplit();
  auto config = FastConfig();
  config.epochs = 5.0;
  config.weight_by_tie_degree = false;
  const auto model = DeepDirectModel::Train(split.network, config);
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.55);
}

TEST(DeepDirectTest, UniformNegativeSamplingAblationRuns) {
  const auto split = EasySplit();
  auto config = FastConfig();
  config.uniform_negative_sampling = true;
  const auto model = DeepDirectModel::Train(split.network, config);
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.55);
}

TEST(DeepDirectTest, WorksWithoutUndirectedTies) {
  // Fully labeled network: pattern loss has no arcs to touch.
  data::GeneratorConfig gen;
  gen.num_nodes = 200;
  gen.ties_per_node = 3.0;
  gen.seed = 31;
  const auto net = data::GenerateStatusNetwork(gen);
  const auto model = DeepDirectModel::Train(net, FastConfig());
  const auto [u, v] = model->index().ArcAt(0);
  EXPECT_GE(model->Directionality(u, v), 0.0);
}

#if DEEPDIRECT_OBS
TEST(DeepDirectTest, NegativeCollisionsAreRedrawnNotSkipped) {
  // On a tiny network the noise table frequently draws the positive
  // context. Collisions must be redrawn — every E-Step iteration still
  // trains on exactly λ negatives — instead of silently dropping the draw.
  obs::Registry::Default().Reset();
  obs::Registry::Default().set_enabled(true);

  data::GeneratorConfig gen;
  gen.num_nodes = 12;
  gen.ties_per_node = 2.0;
  gen.bidirectional_fraction = 0.2;
  gen.seed = 41;
  const auto net = data::GenerateStatusNetwork(gen);
  DeepDirectConfig config;
  config.dimensions = 8;
  config.epochs = 5.0;
  config.seed = 21;
  DeepDirectModel::Train(net, config);

  obs::Registry& registry = obs::Registry::Default();
  const uint64_t steps =
      registry.GetCounter("train.deepdirect.estep.steps")->Value();
  const uint64_t negatives =
      registry.GetCounter("deepdirect.estep.sampler.negatives_trained")
          ->Value();
  const uint64_t collisions =
      registry.GetCounter("deepdirect.estep.sampler.negative_collisions")
          ->Value();
  obs::Registry::Default().set_enabled(false);
  obs::Registry::Default().Reset();

  ASSERT_GT(steps, 0u);
  // This graph is small enough that collisions certainly occur...
  EXPECT_GT(collisions, 0u);
  // ...yet every step still trained the full λ negatives.
  EXPECT_EQ(negatives, steps * config.negative_samples);
}
#endif  // DEEPDIRECT_OBS

TEST(DeepDirectTest, PrecomputePatternsMultiThreadedDeterministic) {
  // The pattern precompute shards undirected arcs over fixed-size blocks
  // with a per-arc counter-based RNG, so every output array must be
  // bit-identical regardless of worker count.
  const auto split = EasySplit();
  const TieIndex index(split.network);
  auto config = FastConfig();
  config.num_threads = 1;
  const auto serial = PrecomputePatterns(split.network, index, config);
  config.num_threads = 4;
  const auto parallel = PrecomputePatterns(split.network, index, config);

  EXPECT_GT(serial.num_pattern_arcs(), 0u);
  EXPECT_EQ(serial.slot, parallel.slot);
  EXPECT_EQ(serial.degree_pseudo_label, parallel.degree_pseudo_label);
  EXPECT_EQ(serial.degree_active, parallel.degree_active);
  EXPECT_EQ(serial.triad_offsets, parallel.triad_offsets);
  EXPECT_EQ(serial.triad_pairs, parallel.triad_pairs);
}

TEST(DeepDirectTest, PrecomputePatternsTriadArenaIsConsistent) {
  const auto split = EasySplit();
  const TieIndex index(split.network);
  const auto patterns =
      PrecomputePatterns(split.network, index, FastConfig());
  const size_t slots = patterns.num_pattern_arcs();
  ASSERT_EQ(patterns.triad_offsets.size(), slots + 1);
  EXPECT_EQ(patterns.triad_offsets.front(), 0u);
  EXPECT_EQ(patterns.triad_offsets.back(), patterns.triad_pairs.size());
  for (size_t s = 0; s + 1 <= slots; ++s) {
    EXPECT_LE(patterns.triad_offsets[s], patterns.triad_offsets[s + 1]);
  }
  // Every referenced pair names valid arcs of the closure.
  for (const auto& [a, b] : patterns.triad_pairs) {
    EXPECT_LT(a, index.num_arcs());
    EXPECT_LT(b, index.num_arcs());
  }
}

TEST(DeepDirectTest, TieEmbeddingAccessors) {
  const auto split = EasySplit();
  const auto model = DeepDirectModel::Train(split.network, FastConfig());
  const auto [u, v] = model->index().ArcAt(3);
  const auto row = model->TieEmbedding(u, v);
  EXPECT_EQ(row.size(), 32u);
  const auto direct = model->embeddings().Row(model->index().IndexOf(u, v));
  EXPECT_EQ(row.data(), direct.data());
}

TEST(DeepDirectTest, ProgressCallbackReportsDecreasingTopoLoss) {
  const auto split = EasySplit();
  auto config = FastConfig();
  config.epochs = 4.0;
  config.report_every = 20000;
  std::vector<double> losses;
  std::vector<uint64_t> steps;
  config.progress = [&](uint64_t step, uint64_t total, double mean_loss) {
    EXPECT_LE(step, total);
    steps.push_back(step);
    losses.push_back(mean_loss);
  };
  DeepDirectModel::Train(split.network, config);
  ASSERT_GT(losses.size(), 3u);
  // Steps are strictly increasing; the final window's loss is below the
  // first window's (skip-gram loss decreases from its cold start).
  for (size_t i = 1; i < steps.size(); ++i) EXPECT_GT(steps[i], steps[i - 1]);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(DeepDirectTest, MlpDStepHeadExtension) {
  // Sec. 8 future work: the nonlinear D-Step head must produce a valid,
  // above-chance directionality function.
  const auto split = EasySplit();
  auto config = FastConfig();
  config.epochs = 5.0;
  config.d_step_head = DStepHead::kMlp;
  const auto model = DeepDirectModel::Train(split.network, config);
  for (size_t e = 0; e < model->index().num_arcs(); e += 13) {
    const auto [u, v] = model->index().ArcAt(e);
    const double d = model->Directionality(u, v);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  EXPECT_GT(DirectionDiscoveryAccuracy(split, *model), 0.6);
}

TEST(DeepDirectTest, DStepWarmStartMatchesEStepShape) {
  const auto split = EasySplit();
  const auto model = DeepDirectModel::Train(split.network, FastConfig());
  EXPECT_EQ(model->d_step_regression().num_features(), 32u);
  EXPECT_EQ(model->e_step_weights().size(), 32u);
}

}  // namespace
}  // namespace deepdirect::core
