// Tests for the DeepDirect model (Sec. 4): training mechanics, accuracy,
// determinism, and configuration behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/estep_body.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "train/hogwild.h"
#include "train/sgd_driver.h"

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

TEST(DeepDirectTest, RunLossFallsFromTheFirstEpochToTheLast) {
  // The E-step's loss curve is the driver's ".run_loss" series: one entry
  // per epoch, each an estimate of that epoch's L_topo sum from the sampled
  // steps. Skip-gram loss falls from its cold start.
  const auto split = EasySplit();
  auto config = FastConfig();
  config.epochs = 4.0;
  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();
  registry.set_enabled(true);
  DeepDirectModel::Train(split.network, config);
  registry.set_enabled(false);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  registry.Reset();

  const std::vector<double>& losses =
      snapshot.series.at("train.deepdirect.estep.run_loss");
  ASSERT_EQ(losses.size(), 4u);
  for (double loss : losses) EXPECT_GT(loss, 0.0);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(DeepDirectTest, DStepWarmStartMatchesEStepShape) {
  const auto split = EasySplit();
  const auto model = DeepDirectModel::Train(split.network, FastConfig());
  EXPECT_EQ(model->d_step_regression().num_features(), 32u);
  EXPECT_EQ(model->e_step_weights().size(), 32u);
}

// ---------------------------------------------------------------------------
// The E-step against the paper's math: one step, its draw phase
// (EStepDraw) and then its train phase (EStepTrain), under scalar kernels
// must apply exactly −lr·∇L, where L is the Eq. 18 loss of the sampled
// step, checked by central differences of an independent f64 reference.

// A storage environment with fixed draws: source arc 0, its context arc 1,
// the noise draws 2, 3, 2, 3, … (so λ = 2 trains on negatives 2 and 3),
// and the triad pairs (4, 5) and (6, 7).
struct FixedDrawEnv {
  static constexpr size_t kArcs = 8;
  static constexpr size_t kSource = 0;
  static constexpr size_t kContext = 1;
  static constexpr size_t kNegatives[2] = {2, 3};

  struct PatternView {
    bool degree_active = false;
    double pseudo_label = 0.0;
    std::vector<std::pair<uint32_t, uint32_t>> triads;
  };

  size_t l;
  std::vector<float> m, n;  // kArcs × l, row-major
  ArcClass arc_class = ArcClass::kLabeledPositive;
  uint32_t tie_degree = 1;
  PatternView pattern;
  std::vector<size_t> noise = {kNegatives[0], kNegatives[1]};  // cycled
  size_t noise_draws = 0;

  size_t num_arcs() const { return kArcs; }
  std::span<float> MRow(size_t e) { return {m.data() + e * l, l}; }
  std::span<float> NRow(size_t e) { return {n.data() + e * l, l}; }
  void PrefetchMRow(size_t) const {}
  void PrefetchNRow(size_t) const {}
  void AnnounceMRow(size_t, size_t) {}
  void AnnounceNRow(size_t, size_t) {}
  void RetireMRow(size_t, size_t) {}
  void RetireNRow(size_t, size_t) {}
  size_t SampleSource(const train::SgdStep&, util::Rng&) { return kSource; }
  size_t SampleConnectedTie(size_t, util::Rng&) { return kContext; }
  size_t SampleNoise(util::Rng&) {
    return noise[noise_draws++ % noise.size()];
  }
  ArcClass ClassOf(size_t) const { return arc_class; }
  bool IsLabeled(size_t) const {
    return arc_class == ArcClass::kLabeledPositive ||
           arc_class == ArcClass::kLabeledNegative;
  }
  double Label(size_t) const {
    return arc_class == ArcClass::kLabeledPositive ? 1.0 : 0.0;
  }
  uint32_t TieDegreeOf(size_t) const { return tie_degree; }
  const PatternView& Pattern(size_t) const { return pattern; }
};

struct GradientCase {
  const char* name;
  ArcClass arc_class;
  bool degree_active;
  bool triads;
  double progress;  ///< step / total steps; the warm-up ends at 0.5
  bool weight_by_tie_degree;
  uint32_t tie_degree;
};

void PrintTo(const GradientCase& c, std::ostream* os) { *os << c.name; }

double Dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (size_t k = 0; k < a.size(); ++k) acc += a[k] * b[k];
  return acc;
}

double Sig(double z) { return 1.0 / (1.0 + std::exp(-z)); }
double LogSig(double z) { return -std::log1p(std::exp(-z)); }

// Cross-entropy of p = σ(z) against the target y.
double CrossEntropy(double z, double y) {
  return -y * LogSig(z) - (1.0 - y) * LogSig(-z);
}

class EStepGradientTest : public ::testing::TestWithParam<GradientCase> {
 protected:
  void SetUp() override {
    saved_mode_ = kernels::CurrentMode();
    kernels::SetMode(kernels::Mode::kScalar);
  }
  void TearDown() override { kernels::SetMode(saved_mode_); }

 private:
  kernels::Mode saved_mode_ = kernels::Mode::kAuto;
};

TEST_P(EStepGradientTest, StepAppliesMinusLrTimesGradient) {
  const GradientCase& c = GetParam();
  constexpr size_t l = 6;
  constexpr double lr = 1e-2;
  constexpr uint64_t kTotal = 1000;

  DeepDirectConfig config;
  config.dimensions = l;
  config.negative_samples = 2;
  config.alpha = 5.0;
  config.beta = 2.0;
  config.classifier_l2 = 0.05;
  config.embedding_l2 = 0.02;
  config.classifier_warmup_fraction = 0.5;
  config.weight_by_tie_degree = c.weight_by_tie_degree;

  util::Rng init(17);
  FixedDrawEnv env{.l = l, .m = {}, .n = {}, .pattern = {}};
  env.m.resize(FixedDrawEnv::kArcs * l);
  env.n.resize(FixedDrawEnv::kArcs * l);
  for (float& x : env.m) x = static_cast<float>(init.NextDoubleIn(-0.5, 0.5));
  for (float& x : env.n) x = static_cast<float>(init.NextDoubleIn(-0.5, 0.5));
  env.arc_class = c.arc_class;
  env.tie_degree = c.tie_degree;
  env.pattern.degree_active = c.degree_active;
  env.pattern.pseudo_label = 0.8;  // y^d, above T = 0.3 when active
  if (c.triads) env.pattern.triads = {{4, 5}, {6, 7}};
  std::vector<double> dense(l + 1);
  for (double& x : dense) x = init.NextDoubleIn(-0.5, 0.5);

  // θ = (m_e, n_e', n_f1, n_f2, w′, b′): every parameter the step may move.
  const size_t rows[4] = {FixedDrawEnv::kSource, FixedDrawEnv::kContext,
                          FixedDrawEnv::kNegatives[0],
                          FixedDrawEnv::kNegatives[1]};
  const auto theta_of = [&](const FixedDrawEnv& from,
                            const std::vector<double>& classifier) {
    std::vector<double> theta;
    for (int block = 0; block < 4; ++block) {
      const float* row = (block == 0 ? from.m.data() : from.n.data()) +
                         rows[block] * l;
      theta.insert(theta.end(), row, row + l);
    }
    theta.insert(theta.end(), classifier.begin(), classifier.end());
    return theta;
  };
  const std::vector<double> theta0 = theta_of(env, dense);

  // The reference's constants: the label, the scale s, and the triad
  // pseudo-label y^t (Eq. 15), held fixed at the pre-step parameters.
  const bool labeled = env.IsLabeled(0);
  const bool undirected = c.arc_class == ArcClass::kUndirected;
  const double warmup = std::min(1.0, c.progress / 0.5);
  const double s =
      warmup * (c.weight_by_tie_degree ? 1.0 : 1.0 / c.tie_degree);
  const std::span<const double> w0(dense.data(), l);
  double y_t = 0.0;
  for (const auto& [uw, vw] : env.pattern.triads) {
    std::vector<double> row_uw(env.m.begin() + uw * l,
                               env.m.begin() + (uw + 1) * l);
    std::vector<double> row_vw(env.m.begin() + vw * l,
                               env.m.begin() + (vw + 1) * l);
    const double y_uw = Sig(dense[l] + Dot(w0, row_uw));
    const double y_vw = Sig(dense[l] + Dot(w0, row_vw));
    y_t += y_uw / (y_uw + y_vw);
  }
  if (c.triads) y_t /= 2.0;
  const bool updates_classifier =
      labeled || (undirected && (c.degree_active || c.triads));

  // L = L_topo + α·s·CE(p, y) + β·s·(CE(p, y^d)·[y^d > T] + CE(p, y^t))
  //     + ½·classifier_l2·‖w′‖² + ½·embedding_l2·‖m_e‖²   (Eq. 18).
  const auto loss = [&](const std::vector<double>& theta) {
    const std::span<const double> all(theta);
    const auto m_e = all.subspan(0, l);
    const auto w = all.subspan(4 * l, l);
    const double b = theta[5 * l];
    double value = -LogSig(Dot(m_e, all.subspan(l, l)));
    for (size_t neg = 2; neg <= 3; ++neg) {
      value -= LogSig(-Dot(m_e, all.subspan(neg * l, l)));
    }
    const double z = b + Dot(w, m_e);
    if (labeled) {
      value += config.alpha * s * CrossEntropy(z, env.Label(0));
    } else if (undirected) {
      if (c.degree_active) {
        value += config.beta * s * CrossEntropy(z, env.pattern.pseudo_label);
      }
      if (c.triads) value += config.beta * s * CrossEntropy(z, y_t);
    }
    if (updates_classifier) value += 0.5 * config.classifier_l2 * Dot(w, w);
    value += 0.5 * config.embedding_l2 * Dot(m_e, m_e);
    return value;
  };

  const std::vector<float> m_before = env.m;
  util::Rng rng(1);
  const train::SgdStep ctx{
      .worker = 0,
      .step = static_cast<uint64_t>(c.progress * kTotal),
      .lr = lr,
      .rng = rng,
      .dense = dense};
  internal::EStepWorkspace workspace(1, l, config.negative_samples, 1);
  internal::EStepTally tally;
  internal::EStepDraw(env, ctx, config, kTotal, workspace[0], tally);
  internal::EStepTrain<train::SerialAccess>(env, ctx, config, workspace[0]);
  EXPECT_EQ(tally.negatives, 2u);

  const std::vector<double> theta1 = theta_of(env, dense);
  constexpr double h = 1e-6;
  for (size_t i = 0; i < theta0.size(); ++i) {
    std::vector<double> plus = theta0, minus = theta0;
    plus[i] += h;
    minus[i] -= h;
    const double gradient = (loss(plus) - loss(minus)) / (2.0 * h);
    const double applied = (theta0[i] - theta1[i]) / lr;
    EXPECT_NEAR(applied, gradient, 1e-5) << "coordinate " << i;
  }

  // The triad arcs feed y^t only; their rows must not move.
  for (size_t e = 4; e < FixedDrawEnv::kArcs; ++e) {
    for (size_t k = 0; k < l; ++k) {
      EXPECT_EQ(env.m[e * l + k], m_before[e * l + k]) << "arc " << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Eq18, EStepGradientTest,
    ::testing::Values(
        GradientCase{"LabeledPositive", ArcClass::kLabeledPositive, false,
                     false, 0.8, true, 1},
        GradientCase{"LabeledNegativeInWarmup", ArcClass::kLabeledNegative,
                     false, false, 0.2, true, 1},
        GradientCase{"UndirectedBothPatterns", ArcClass::kUndirected, true,
                     true, 0.8, true, 1},
        GradientCase{"UndirectedTriadsOnly", ArcClass::kUndirected, false,
                     true, 0.8, true, 1},
        GradientCase{"BidirectionalTopologyOnly", ArcClass::kBidirectional,
                     false, false, 0.8, true, 1},
        GradientCase{"LabeledWithoutTieDegreeWeight",
                     ArcClass::kLabeledPositive, false, false, 0.8, false, 4},
        GradientCase{"UndirectedWithoutTieDegreeWeight",
                     ArcClass::kUndirected, true, true, 0.8, false, 3}),
    [](const ::testing::TestParamInfo<GradientCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// The step's one kernel call against the step it replaced: the two-phase
// step draws every index first (EStepDraw) and then trains the positive
// and the λ negatives in one NegSamplingRows call (EStepTrain); the
// reference below draws each negative just before its own
// NegSamplingUpdate call. Both must move every parameter,
// the loss and the tallies identically, bit for bit, on either kernel path.

double PerNegativeReferenceStep(FixedDrawEnv& env, const train::SgdStep& ctx,
                                const DeepDirectConfig& config,
                                uint64_t total, std::span<double> grad_m,
                                internal::EStepTally& tally) {
  using A = train::SerialAccess;
  const std::span<double> w_prime = ctx.dense.first(ctx.dense.size() - 1);
  double& b_prime = ctx.dense.back();
  const double lr = ctx.lr;
  const size_t e = env.SampleSource(ctx, ctx.rng);
  const size_t e_prime = env.SampleConnectedTie(e, ctx.rng);
  auto m_e = env.MRow(e);
  std::fill(grad_m.begin(), grad_m.end(), 0.0);
  double loss = -ml::LogSigmoid(kernels::NegSamplingUpdate<A>(
      grad_m, m_e, env.NRow(e_prime), 1.0, 1.0, -lr));
  for (size_t neg = 0; neg < config.negative_samples; ++neg) {
    size_t f = env.SampleNoise(ctx.rng);
    size_t redraws = 0;
    while (f == e_prime && redraws < internal::kMaxNegativeRedraws) {
      ++tally.neg_collisions;
      ++redraws;
      f = env.SampleNoise(ctx.rng);
    }
    if (f == e_prime) continue;
    ++tally.negatives;
    loss -= ml::LogSigmoid(-kernels::NegSamplingUpdate<A>(
        grad_m, m_e, env.NRow(f), 0.0, 1.0, -lr));
  }
  const double progress =
      static_cast<double>(ctx.step) / static_cast<double>(total);
  const double warmup = std::min(1.0, progress / 0.5);
  const double prediction =
      ml::Sigmoid(kernels::DotF64F32<A>(b_prime, w_prime, m_e));
  double g_b = 0.0;
  if (env.IsLabeled(e)) {
    ++tally.labeled;
    g_b = config.alpha * warmup * (prediction - env.Label(e));
  } else if (env.ClassOf(e) == ArcClass::kUndirected) {
    const auto& pattern = env.Pattern(e);
    double y_t = 0.0;
    for (const auto& [uw, vw] : pattern.triads) {
      double s_uw = 0.0;
      double s_vw = 0.0;
      kernels::DotPairF64F32<A>(b_prime, w_prime, env.MRow(uw), env.MRow(vw),
                                &s_uw, &s_vw);
      const double y_uw = ml::Sigmoid(s_uw);
      const double y_vw = ml::Sigmoid(s_vw);
      y_t += y_uw / std::max(y_uw + y_vw, 1e-12);
    }
    ++tally.triad_pattern;
    y_t /= static_cast<double>(pattern.triads.size());
    g_b = config.beta * warmup * (prediction - y_t);
  }
  if (g_b != 0.0) {
    kernels::ClassifierUpdate<A>(grad_m, w_prime, m_e, g_b, lr,
                                 config.classifier_l2);
    b_prime -= lr * g_b;
  }
  kernels::ApplyGradDecay<A>(m_e, grad_m, lr, config.embedding_l2);
  return loss;
}

struct ListCase {
  const char* name;
  size_t negatives;
  std::vector<size_t> noise;  ///< cycled; arc 1 is the context
  ArcClass arc_class;
};

TEST(EStepListTest, OneKernelCallMatchesPerNegativeUpdatesBitForBit) {
  constexpr size_t l = 17;
  const ListCase cases[] = {
      {"PositiveOnly", 0, {2}, ArcClass::kLabeledPositive},
      {"FiveDistinct", 5, {2, 3, 4, 5, 6}, ArcClass::kLabeledNegative},
      {"RepeatedNoiseRow", 5, {2, 3, 2, 7, 2}, ArcClass::kUndirected},
      {"CollisionsRedrawn", 4, {1, 2, 1, 1, 3, 0}, ArcClass::kUndirected},
      {"EveryDrawCollides", 2, {1}, ArcClass::kLabeledPositive},
      {"LongerThanARun", 19, {2, 3, 4, 5, 6, 7, 0}, ArcClass::kUndirected},
  };
  const kernels::Mode saved = kernels::CurrentMode();
  for (const kernels::Mode mode : {kernels::Mode::kScalar,
                                   kernels::Mode::kSimd}) {
    kernels::SetMode(mode);
    for (const ListCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) +
                   (mode == kernels::Mode::kScalar ? " scalar" : " simd"));
      DeepDirectConfig config;
      config.dimensions = l;
      config.negative_samples = c.negatives;
      config.classifier_warmup_fraction = 0.5;

      util::Rng init(29);
      FixedDrawEnv env{.l = l, .m = {}, .n = {}, .pattern = {}};
      env.m.resize(FixedDrawEnv::kArcs * l);
      env.n.resize(FixedDrawEnv::kArcs * l);
      for (std::vector<float>* rows : {&env.m, &env.n}) {
        for (float& x : *rows) x = static_cast<float>(init.NextDoubleIn(-1, 1));
      }
      env.arc_class = c.arc_class;
      env.pattern.triads = {{4, 5}, {6, 7}};
      env.noise = c.noise;
      std::vector<double> dense(l + 1);
      for (double& x : dense) x = init.NextDoubleIn(-0.5, 0.5);
      FixedDrawEnv ref_env = env;
      std::vector<double> ref_dense = dense;

      util::Rng rng(1);
      const train::SgdStep ctx{.worker = 0,
                               .step = 800,
                               .lr = 0.05,
                               .rng = rng,
                               .dense = dense,
                               .sample_loss = true};
      internal::EStepWorkspace workspace(1, l, c.negatives, 1);
      internal::EStepTally tally;
      internal::EStepDraw(env, ctx, config, 1000, workspace[0], tally);
      const double loss = internal::EStepTrain<train::SerialAccess>(
          env, ctx, config, workspace[0]);

      const train::SgdStep ref_ctx{.worker = 0,
                                   .step = 800,
                                   .lr = 0.05,
                                   .rng = rng,
                                   .dense = ref_dense};
      std::vector<double> grad_m(l);
      internal::EStepTally ref_tally;
      const double ref_loss = PerNegativeReferenceStep(
          ref_env, ref_ctx, config, 1000, grad_m, ref_tally);

      EXPECT_EQ(env.m, ref_env.m);
      EXPECT_EQ(env.n, ref_env.n);
      EXPECT_EQ(dense, ref_dense);
      // A sampled step reports kLossSampleSteps times its loss.
      EXPECT_EQ(loss,
                static_cast<double>(train::kLossSampleSteps) * ref_loss);
      EXPECT_EQ(env.noise_draws, ref_env.noise_draws);
      EXPECT_EQ(tally.resamples, ref_tally.resamples);
      EXPECT_EQ(tally.neg_collisions, ref_tally.neg_collisions);
      EXPECT_EQ(tally.negatives, ref_tally.negatives);
      EXPECT_EQ(tally.labeled, ref_tally.labeled);
      EXPECT_EQ(tally.degree_pattern, ref_tally.degree_pattern);
      EXPECT_EQ(tally.triad_pattern, ref_tally.triad_pattern);
    }
  }
  kernels::SetMode(saved);
}

// Eq. 14 as implemented (DESIGN.md §4b): y^d_{uv} = deg(v)/(deg(u)+deg(v)),
// the pattern-consistent form, not the printed deg(u)/(deg(u)+deg(v)).
TEST(DeepDirectTest, Eq14DegreePseudoLabelIsTargetDegreeShare) {
  // deg counts a directed tie 1, a bidirectional tie 2 and an undirected
  // tie 1 (Eqs. 1–2): deg(0) = 1, deg(1) = 4, deg(2) = 2, deg(3) = 4,
  // deg(4) = 1.
  graph::GraphBuilder builder(5);
  ASSERT_TRUE(builder.AddTie(0, 1, graph::TieType::kUndirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 2, graph::TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(1, 3, graph::TieType::kBidirectional).ok());
  ASSERT_TRUE(builder.AddTie(2, 3, graph::TieType::kDirected).ok());
  ASSERT_TRUE(builder.AddTie(3, 4, graph::TieType::kUndirected).ok());
  const auto g = std::move(builder).Build();
  const TieIndex idx(g);
  const PatternPrecompute patterns =
      PrecomputePatterns(g, idx, DeepDirectConfig{});
  const struct {
    graph::NodeId u, v;
    double y_d;
  } cases[] = {{0, 1, 4.0 / 5.0}, {1, 0, 1.0 / 5.0},
               {3, 4, 1.0 / 5.0}, {4, 3, 4.0 / 5.0}};
  ASSERT_EQ(patterns.num_pattern_arcs(), 4u);
  for (const auto& c : cases) {
    const uint32_t slot = patterns.slot[idx.IndexOf(c.u, c.v)];
    ASSERT_NE(slot, UINT32_MAX) << c.u << "->" << c.v;
    EXPECT_DOUBLE_EQ(patterns.degree_pseudo_label[slot], c.y_d)
        << c.u << "->" << c.v;
    EXPECT_EQ(patterns.degree_active[slot], c.y_d > 0.3 ? 1 : 0)
        << c.u << "->" << c.v;
  }
}

}  // namespace
}  // namespace deepdirect::core
