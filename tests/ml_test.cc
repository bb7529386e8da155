// Unit tests for the ML substrate: matrix ops, logistic regression, MLP,
// metrics, scaler.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/scaler.h"

namespace deepdirect::ml {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ShapeAndAccess) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  m.At(1, 2) = 7.5f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 7.5f);
  EXPECT_FLOAT_EQ(m.Row(1)[2], 7.5f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, FillUniformRange) {
  Matrix m(10, 10);
  util::Rng rng(3);
  m.FillUniform(rng, -0.5f, 0.5f);
  bool any_nonzero = false;
  for (float v : m.data()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
    any_nonzero |= (v != 0.0f);
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(VectorOpsTest, DotAndAxpyAndNorm) {
  std::vector<float> a{1.0f, 2.0f, 3.0f};
  std::vector<float> b{4.0f, -5.0f, 6.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(SigmoidTest, ValuesAndStability) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 - Sigmoid(2.0), 1e-12);
}

TEST(SigmoidTest, ClampsExtremeArgumentsToSigmoidOfSix) {
  // Arguments beyond ±6 (the word2vec clamp range, shared with the SIMD
  // sigmoid LUT) saturate to σ(±6) — including infinities.
  const double at_clamp = 1.0 / (1.0 + std::exp(-6.0));
  EXPECT_DOUBLE_EQ(Sigmoid(6.0), at_clamp);
  EXPECT_DOUBLE_EQ(Sigmoid(7.0), at_clamp);
  EXPECT_DOUBLE_EQ(Sigmoid(1000.0), at_clamp);
  EXPECT_DOUBLE_EQ(Sigmoid(std::numeric_limits<double>::infinity()),
                   at_clamp);
  EXPECT_NEAR(Sigmoid(-6.0), 1.0 - at_clamp, 1e-15);
  EXPECT_DOUBLE_EQ(Sigmoid(-1000.0), Sigmoid(-6.0));
  EXPECT_DOUBLE_EQ(Sigmoid(-std::numeric_limits<double>::infinity()),
                   Sigmoid(-6.0));
  // Inside the clamp range nothing changes.
  EXPECT_LT(Sigmoid(5.999), Sigmoid(6.0));
  // NaN propagates rather than silently mapping to the bound.
  EXPECT_TRUE(std::isnan(Sigmoid(std::nan(""))));
}

TEST(LogSigmoidTest, MatchesLogOfSigmoid) {
  for (double x : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    EXPECT_NEAR(LogSigmoid(x), std::log(Sigmoid(x)), 1e-12);
  }
}

TEST(LogSigmoidTest, ClampsConsistentlyWithSigmoid) {
  // Same ±6 clamp as Sigmoid: extreme and infinite arguments give the
  // finite value at the bound, and log∘σ stays consistent there.
  EXPECT_NEAR(LogSigmoid(-1000.0), std::log(Sigmoid(-1000.0)), 1e-12);
  EXPECT_DOUBLE_EQ(LogSigmoid(-1000.0), LogSigmoid(-6.0));
  EXPECT_DOUBLE_EQ(LogSigmoid(1000.0), LogSigmoid(6.0));
  EXPECT_DOUBLE_EQ(LogSigmoid(-std::numeric_limits<double>::infinity()),
                   LogSigmoid(-6.0));
  EXPECT_DOUBLE_EQ(LogSigmoid(std::numeric_limits<double>::infinity()),
                   LogSigmoid(6.0));
  EXPECT_TRUE(std::isfinite(LogSigmoid(-1.0e308)));
}

// --------------------------------------------------------------- Dataset

TEST(DatasetTest, AddAndAccess) {
  Dataset data(2);
  data.Add(std::vector<double>{1.0, 2.0}, 1.0, 0.5);
  data.Add(std::vector<double>{3.0, 4.0}, 0.0);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_DOUBLE_EQ(data.Row(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(data.Label(0), 1.0);
  EXPECT_DOUBLE_EQ(data.Weight(0), 0.5);
  EXPECT_DOUBLE_EQ(data.Weight(1), 1.0);
}

TEST(DatasetTest, SoftLabelsAllowed) {
  Dataset data(1);
  data.Add(std::vector<double>{0.0}, 0.37);
  EXPECT_DOUBLE_EQ(data.Label(0), 0.37);
}

// ---------------------------------------------------- LogisticRegression

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  // Labels follow sign(x0 - x1).
  Dataset data(2);
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x0 = rng.NextDoubleIn(-1, 1);
    const double x1 = rng.NextDoubleIn(-1, 1);
    data.Add(std::vector<double>{x0, x1}, x0 > x1 ? 1.0 : 0.0);
  }
  LogisticRegression lr(2);
  LogisticRegressionConfig config;
  config.epochs = 50;
  lr.Train(data, config);

  int correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double p = lr.Predict(data.Row(i));
    correct += (p >= 0.5) == (data.Label(i) == 1.0);
  }
  EXPECT_GT(correct, 480);
  // The learned weights must reflect the generating rule w0 > 0 > w1.
  EXPECT_GT(lr.weights()[0], 0.0);
  EXPECT_LT(lr.weights()[1], 0.0);
}

TEST(LogisticRegressionTest, MultiThreadedTrainingLearnsSeparableData) {
  // Hogwild workers race on the weight vector; the decision rule must
  // still be recovered.
  Dataset data(2);
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x0 = rng.NextDoubleIn(-1, 1);
    const double x1 = rng.NextDoubleIn(-1, 1);
    data.Add(std::vector<double>{x0, x1}, x0 > x1 ? 1.0 : 0.0);
  }
  LogisticRegression lr(2);
  LogisticRegressionConfig config;
  config.epochs = 50;
  config.num_threads = 4;
  lr.Train(data, config);

  int correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const double p = lr.Predict(data.Row(i));
    correct += (p >= 0.5) == (data.Label(i) == 1.0);
  }
  EXPECT_GT(correct, 470);
  EXPECT_GT(lr.weights()[0], 0.0);
  EXPECT_LT(lr.weights()[1], 0.0);
}

TEST(LogisticRegressionTest, WarmStartConstructor) {
  LogisticRegression lr({1.0, -1.0}, 0.5);
  EXPECT_DOUBLE_EQ(lr.bias(), 0.5);
  EXPECT_DOUBLE_EQ(lr.Score(std::vector<double>{2.0, 1.0}), 1.5);
  EXPECT_NEAR(lr.Predict(std::vector<double>{2.0, 1.0}), Sigmoid(1.5), 1e-12);
}

TEST(LogisticRegressionTest, PredictRowEqualsPredictOnTheWidenedRow) {
  // Terms whose sum depends on the order they are added in, so only the
  // same order (bias first, then ascending k) gives the same bits.
  const LogisticRegression lr({1e16, 0.3, -1e16, 0.7, 1e-3}, 0.1);
  const std::vector<float> row{1.0f, 0.1f, 1.0f, -0.2f, 3.0f};
  const std::vector<double> widened(row.begin(), row.end());
  EXPECT_EQ(lr.PredictRow(row), lr.Predict(widened));
}

TEST(LogisticRegressionTest, SampleWeightsShiftDecision) {
  // Conflicting labels at the same point: the heavier class wins.
  Dataset data(1);
  data.Add(std::vector<double>{1.0}, 1.0, 10.0);
  data.Add(std::vector<double>{1.0}, 0.0, 1.0);
  LogisticRegression lr(1);
  LogisticRegressionConfig config;
  config.epochs = 200;
  config.l2 = 0.0;
  lr.Train(data, config);
  EXPECT_GT(lr.Predict(std::vector<double>{1.0}), 0.5);
}

TEST(LogisticRegressionTest, L2ShrinksWeights) {
  Dataset data(1);
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextDoubleIn(-1, 1);
    data.Add(std::vector<double>{x}, x > 0 ? 1.0 : 0.0);
  }
  LogisticRegressionConfig weak, strong;
  weak.epochs = strong.epochs = 50;
  weak.l2 = 0.0;
  strong.l2 = 1.0;
  LogisticRegression lr_weak(1), lr_strong(1);
  lr_weak.Train(data, weak);
  lr_strong.Train(data, strong);
  EXPECT_LT(std::abs(lr_strong.weights()[0]),
            std::abs(lr_weak.weights()[0]));
}

TEST(LogisticRegressionTest, EmptyDatasetIsNoop) {
  Dataset data(3);
  LogisticRegression lr(3);
  EXPECT_DOUBLE_EQ(lr.Train(data, {}), 0.0);
  for (double w : lr.weights()) EXPECT_DOUBLE_EQ(w, 0.0);
}

TEST(LogisticRegressionTest, TrainingLossDecreases) {
  Dataset data(2);
  util::Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double x0 = rng.NextGaussian();
    const double x1 = rng.NextGaussian();
    data.Add(std::vector<double>{x0, x1}, x0 + 0.5 * x1 > 0 ? 1.0 : 0.0);
  }
  LogisticRegression lr(2);
  LogisticRegressionConfig one_epoch;
  one_epoch.epochs = 1;
  const double early = lr.Train(data, one_epoch);
  LogisticRegressionConfig more;
  more.epochs = 30;
  const double late = lr.Train(data, more);
  EXPECT_LT(late, early);
}

// ------------------------------------------------------------------ MLP

TEST(MlpTest, LearnsXor) {
  Dataset data(2);
  for (int rep = 0; rep < 50; ++rep) {
    data.Add(std::vector<double>{0.0, 0.0}, 0.0);
    data.Add(std::vector<double>{0.0, 1.0}, 1.0);
    data.Add(std::vector<double>{1.0, 0.0}, 1.0);
    data.Add(std::vector<double>{1.0, 1.0}, 0.0);
  }
  MlpClassifier mlp(2, 16, /*seed=*/3);
  MlpConfig config;
  config.epochs = 200;
  config.learning_rate = 0.1;
  config.l2 = 0.0;
  mlp.Train(data, config);
  EXPECT_LT(mlp.Predict(std::vector<double>{0.0, 0.0}), 0.5);
  EXPECT_GT(mlp.Predict(std::vector<double>{0.0, 1.0}), 0.5);
  EXPECT_GT(mlp.Predict(std::vector<double>{1.0, 0.0}), 0.5);
  EXPECT_LT(mlp.Predict(std::vector<double>{1.0, 1.0}), 0.5);
}

TEST(MlpTest, OutputIsProbability) {
  MlpClassifier mlp(3, 8, 5);
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x{rng.NextGaussian(), rng.NextGaussian(),
                          rng.NextGaussian()};
    const double p = mlp.Predict(x);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// -------------------------------------------------------------- Metrics

TEST(MetricsTest, AccuracyThresholdsAtHalf) {
  EXPECT_DOUBLE_EQ(Accuracy({0.9, 0.4, 0.5, 0.1}, {1, 0, 1, 1}), 0.75);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, AucPerfectAndInverted) {
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.1, 0.2, 0.8, 0.9}, labels), 1.0);
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.9, 0.8, 0.2, 0.1}, labels), 0.0);
}

TEST(MetricsTest, AucRandomIsHalf) {
  // All scores identical: AUC must be exactly 0.5 via midranks.
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
}

TEST(MetricsTest, AucHandComputedWithTies) {
  // scores: pos {0.8, 0.5}, neg {0.5, 0.2}. Pairs: (0.8 vs 0.5)=1,
  // (0.8 vs 0.2)=1, (0.5 vs 0.5)=0.5, (0.5 vs 0.2)=1 -> AUC = 3.5/4.
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.8, 0.5, 0.5, 0.2}, {1, 1, 0, 0}), 0.875);
}

TEST(MetricsTest, AucDegenerateSingleClass) {
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.1, 0.9}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(AreaUnderRoc({0.1, 0.9}, {0, 0}), 0.5);
}

// --------------------------------------------------------------- Scaler

TEST(ScalerTest, StandardizesColumns) {
  Dataset data(2);
  data.Add(std::vector<double>{1.0, 10.0}, 0.0);
  data.Add(std::vector<double>{3.0, 10.0}, 1.0);
  data.Add(std::vector<double>{5.0, 10.0}, 0.0);
  StandardScaler scaler;
  scaler.Fit(data);
  EXPECT_DOUBLE_EQ(scaler.means()[0], 3.0);
  EXPECT_DOUBLE_EQ(scaler.means()[1], 10.0);
  scaler.Transform(data);
  // Column 0 standardized; column 1 constant -> centered only.
  EXPECT_NEAR(data.Row(0)[0], -std::sqrt(1.5), 1e-12);
  EXPECT_NEAR(data.Row(1)[0], 0.0, 1e-12);
  EXPECT_NEAR(data.Row(0)[1], 0.0, 1e-12);
  // Mean 0 / variance 1 after transform.
  double mean = 0.0, var = 0.0;
  for (size_t i = 0; i < data.size(); ++i) mean += data.Row(i)[0];
  mean /= 3.0;
  for (size_t i = 0; i < data.size(); ++i) {
    var += (data.Row(i)[0] - mean) * (data.Row(i)[0] - mean);
  }
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var / 3.0, 1.0, 1e-12);
}

TEST(ScalerTest, TransformRowMatchesTransform) {
  Dataset data(1);
  data.Add(std::vector<double>{2.0}, 0.0);
  data.Add(std::vector<double>{4.0}, 1.0);
  StandardScaler scaler;
  scaler.Fit(data);
  std::vector<double> row{2.0};
  scaler.TransformRow(row);
  EXPECT_NEAR(row[0], -1.0, 1e-12);
}

}  // namespace
}  // namespace deepdirect::ml
