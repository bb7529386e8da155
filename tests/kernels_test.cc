// Kernel-layer tests: dispatch mode switching, the sigmoid LUT error
// bound, bit-identity of the scalar dispatch path against the historical
// per-trainer arithmetic, scalar-vs-SIMD tolerance sweeps over odd
// lengths, unaligned spans, and denormal inputs, and the CRC-32 fold
// against the bytewise loop.

#include "kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "data/generators.h"
#include "embedding/line.h"
#include "kernels/crc32.h"
#include "ml/matrix.h"
#include "train/hogwild.h"
#include "util/random.h"

namespace deepdirect::kernels {
namespace {

using train::HogwildAccess;
using train::SerialAccess;

// Restores the dispatch mode after each test so ordering cannot leak.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = CurrentMode(); }
  void TearDown() override { SetMode(saved_); }

 private:
  Mode saved_;
};

std::vector<float> RandomRow(util::Rng& rng, size_t n) {
  std::vector<float> out(n);
  for (float& v : out) {
    v = static_cast<float>(rng.NextDoubleIn(-1.0, 1.0));
  }
  return out;
}

std::vector<double> RandomRowD(util::Rng& rng, size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = rng.NextDoubleIn(-1.0, 1.0);
  return out;
}

// Lengths chosen to cover empty, sub-vector tails, exact vector widths
// (4, 8), and everything in between for both SSE2 and AVX2 lane counts.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64};

// ------------------------------------------------------------- dispatch

TEST_F(KernelsTest, SetModeParsesKnownNamesAndRejectsOthers) {
  EXPECT_TRUE(SetMode("scalar"));
  EXPECT_EQ(CurrentMode(), Mode::kScalar);
  EXPECT_FALSE(SimdEnabled());
  EXPECT_STREQ(ActivePathName(), "scalar");

  // simd picks what auto picks: the vector table where the host has one.
  EXPECT_TRUE(SetMode("simd"));
  EXPECT_EQ(CurrentMode(), Mode::kSimd);
  EXPECT_EQ(SimdEnabled(), std::string_view(SimdIsaName()) != "scalar");
  EXPECT_STREQ(ActivePathName(), SimdIsaName());

  EXPECT_TRUE(SetMode("auto"));
  EXPECT_EQ(CurrentMode(), Mode::kAuto);

  EXPECT_FALSE(SetMode("avx512"));
  EXPECT_FALSE(SetMode(""));
  EXPECT_EQ(CurrentMode(), Mode::kAuto) << "failed parse must not change mode";
}

TEST_F(KernelsTest, SerialPolicyAlwaysAdmitsVectorization) {
  EXPECT_TRUE(VectorizedPath<SerialAccess>());
#if defined(__SANITIZE_THREAD__)
  EXPECT_FALSE(VectorizedPath<HogwildAccess>());
#else
  EXPECT_TRUE(VectorizedPath<HogwildAccess>());
#endif
}

// ---------------------------------------------------------- sigmoid LUT

TEST_F(KernelsTest, SigmoidLutStaysWithinDocumentedErrorBound) {
  double max_err = 0.0;
  for (double x = -8.0; x <= 8.0; x += 1e-3) {
    max_err = std::max(max_err, std::fabs(SigmoidLut(x) - Sigmoid(x)));
  }
  EXPECT_LE(max_err, kSigmoidLutMaxError);
}

TEST_F(KernelsTest, SigmoidLutMatchesClampAtExtremes) {
  EXPECT_NEAR(SigmoidLut(1000.0), Sigmoid(6.0), kSigmoidLutMaxError);
  EXPECT_NEAR(SigmoidLut(-1000.0), Sigmoid(-6.0), kSigmoidLutMaxError);
  EXPECT_NEAR(SigmoidLut(std::numeric_limits<double>::infinity()),
              Sigmoid(6.0), kSigmoidLutMaxError);
  EXPECT_NEAR(SigmoidLut(-std::numeric_limits<double>::infinity()),
              Sigmoid(-6.0), kSigmoidLutMaxError);
  EXPECT_TRUE(std::isnan(SigmoidLut(std::nan(""))));
}

// ---------------------------- scalar dispatch == historical arithmetic
//
// Each case replays the pre-refactor trainer loop verbatim (policy loads,
// double accumulation, sigmoid, float rounding in the original order) and
// requires the kernel under scalar dispatch to match it bit-for-bit. This
// is the contract that keeps the nt=1 resume goldens valid.

TEST_F(KernelsTest, ScalarNegSamplingUpdateMatchesEStepBitForBit) {
  SetMode(Mode::kScalar);
  util::Rng rng(7);
  for (size_t n : kLengths) {
    for (double label : {1.0, 0.0}) {
      const double lr = 0.025;
      const std::vector<float> src = RandomRow(rng, n);
      std::vector<float> dst = RandomRow(rng, n);
      std::vector<float> dst_ref = dst;
      std::vector<double> grad(n, 0.125);
      std::vector<double> grad_ref = grad;

      // Historical E-step: g = σ(score) − y; grad += g·dst; then
      // AddScaled(dst, −lr·g, src).
      double score_ref = 0.0;
      for (size_t k = 0; k < n; ++k) {
        score_ref += static_cast<double>(src[k]) *
                     static_cast<double>(dst_ref[k]);
      }
      const double g = label == 1.0 ? ml::Sigmoid(score_ref) - 1.0
                                    : ml::Sigmoid(score_ref);
      for (size_t k = 0; k < n; ++k) {
        grad_ref[k] += g * static_cast<double>(dst_ref[k]);
      }
      const double alpha = -lr * g;
      for (size_t k = 0; k < n; ++k) {
        dst_ref[k] +=
            static_cast<float>(alpha * static_cast<double>(src[k]));
      }

      const double score = NegSamplingUpdate<SerialAccess>(
          grad, src, dst, label, /*grad_scale=*/1.0, /*update_scale=*/-lr);
      EXPECT_EQ(score, score_ref);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_EQ(dst[k], dst_ref[k]) << "n=" << n << " k=" << k;
        EXPECT_EQ(grad[k], grad_ref[k]) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(KernelsTest, ScalarNegSamplingUpdateMatchesSkipGramBitForBit) {
  SetMode(Mode::kScalar);
  util::Rng rng(8);
  for (size_t n : kLengths) {
    for (double label : {1.0, 0.0}) {
      const double lr = 0.05;
      const std::vector<float> center = RandomRow(rng, n);
      std::vector<float> ctx = RandomRow(rng, n);
      std::vector<float> ctx_ref = ctx;
      std::vector<double> grad(n, 0.0);
      std::vector<double> grad_ref(n, 0.0);

      // Historical skip-gram: g = (1−σ)·lr for the positive pair and
      // −σ·lr for negatives; grad += g·ctx; ctx += float(g·center).
      double score_ref = 0.0;
      for (size_t k = 0; k < n; ++k) {
        score_ref += static_cast<double>(center[k]) *
                     static_cast<double>(ctx_ref[k]);
      }
      const double g = label == 1.0 ? (1.0 - ml::Sigmoid(score_ref)) * lr
                                    : -ml::Sigmoid(score_ref) * lr;
      for (size_t k = 0; k < n; ++k) {
        grad_ref[k] += g * static_cast<double>(ctx_ref[k]);
        ctx_ref[k] +=
            static_cast<float>(g * static_cast<double>(center[k]));
      }

      NegSamplingUpdate<SerialAccess>(grad, center, ctx, label,
                                      /*grad_scale=*/-lr,
                                      /*update_scale=*/1.0);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_EQ(ctx[k], ctx_ref[k]) << "n=" << n << " k=" << k;
        EXPECT_EQ(grad[k], grad_ref[k]) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(KernelsTest, ScalarNegSamplingUpdateMatchesLineBitForBit) {
  SetMode(Mode::kScalar);
  util::Rng rng(9);
  for (size_t n : kLengths) {
    for (double label : {1.0, 0.0}) {
      const double lr = 0.02;
      const std::vector<float> src = RandomRow(rng, n);
      std::vector<float> tgt = RandomRow(rng, n);
      std::vector<float> tgt_ref = tgt;
      std::vector<double> grad(n, -0.5);
      std::vector<double> grad_ref = grad;

      // Historical LINE: g = (label − σ)·lr.
      double score_ref = 0.0;
      for (size_t k = 0; k < n; ++k) {
        score_ref += static_cast<double>(src[k]) *
                     static_cast<double>(tgt_ref[k]);
      }
      const double g = (label - ml::Sigmoid(score_ref)) * lr;
      for (size_t k = 0; k < n; ++k) {
        grad_ref[k] += g * static_cast<double>(tgt_ref[k]);
        tgt_ref[k] += static_cast<float>(g * static_cast<double>(src[k]));
      }

      NegSamplingUpdate<SerialAccess>(grad, src, tgt, label,
                                      /*grad_scale=*/-lr,
                                      /*update_scale=*/1.0);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_EQ(tgt[k], tgt_ref[k]) << "n=" << n << " k=" << k;
        EXPECT_EQ(grad[k], grad_ref[k]) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_F(KernelsTest, ScalarClassifierAndApplyKernelsMatchEStepBitForBit) {
  SetMode(Mode::kScalar);
  util::Rng rng(10);
  const double lr = 0.03, l2 = 1e-4, g_b = 0.37;
  for (size_t n : kLengths) {
    const std::vector<float> m_e = RandomRow(rng, n);
    std::vector<double> w = RandomRowD(rng, n);
    std::vector<double> w_ref = w;
    std::vector<double> grad(n, 0.25);
    std::vector<double> grad_ref = grad;

    // Historical coupled classifier update.
    for (size_t k = 0; k < n; ++k) {
      const double wk = w_ref[k];
      grad_ref[k] += g_b * wk;
      w_ref[k] = wk - lr * (g_b * static_cast<double>(m_e[k]) + l2 * wk);
    }
    ClassifierUpdate<SerialAccess>(grad, w, m_e, g_b, lr, l2);
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(w[k], w_ref[k]);
      EXPECT_EQ(grad[k], grad_ref[k]);
    }

    // Historical final apply with row decay.
    std::vector<float> row = RandomRow(rng, n);
    std::vector<float> row_ref = row;
    for (size_t k = 0; k < n; ++k) {
      const float mk = row_ref[k];
      row_ref[k] = mk - static_cast<float>(
                            lr * (grad[k] + l2 * static_cast<double>(mk)));
    }
    ApplyGradDecay<SerialAccess>(row, grad, lr, l2);
    for (size_t k = 0; k < n; ++k) EXPECT_EQ(row[k], row_ref[k]);
  }
}

TEST_F(KernelsTest, ScalarDotAndLogRegKernelsMatchDStepBitForBit) {
  SetMode(Mode::kScalar);
  util::Rng rng(11);
  const double lr = 0.1, l2 = 1e-3, g = -0.42, bias = 0.6;
  for (size_t n : kLengths) {
    const std::vector<double> x = RandomRowD(rng, n);
    std::vector<double> w = RandomRowD(rng, n);
    std::vector<double> w_ref = w;

    double score_ref = bias;
    for (size_t j = 0; j < n; ++j) score_ref += w_ref[j] * x[j];
    EXPECT_EQ(DotWeights<SerialAccess>(bias, w, x), score_ref);

    for (size_t j = 0; j < n; ++j) {
      const double wj = w_ref[j];
      w_ref[j] = wj - lr * (g * x[j] + l2 * wj);
    }
    LogRegUpdate<SerialAccess>(w, x, lr, g, l2);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(w[j], w_ref[j]);

    // Classifier score kernels against the historical mixed-precision
    // loops.
    const std::vector<float> m1 = RandomRow(rng, n);
    const std::vector<float> m2 = RandomRow(rng, n);
    double s1_ref = bias, s2_ref = bias;
    for (size_t k = 0; k < n; ++k) {
      s1_ref += w[k] * static_cast<double>(m1[k]);
      s2_ref += w[k] * static_cast<double>(m2[k]);
    }
    EXPECT_EQ(DotF64F32<SerialAccess>(bias, w, m1), s1_ref);
    double s1 = 0.0, s2 = 0.0;
    DotPairF64F32<SerialAccess>(bias, w, m1, m2, &s1, &s2);
    EXPECT_EQ(s1, s1_ref);
    EXPECT_EQ(s2, s2_ref);
  }
}

TEST_F(KernelsTest, PoliciesAgreeBitForBitInScalarMode) {
  SetMode(Mode::kScalar);
  util::Rng rng(12);
  const std::vector<float> src = RandomRow(rng, 17);
  std::vector<float> d1 = RandomRow(rng, 17);
  std::vector<float> d2 = d1;
  std::vector<double> g1(17, 0.0), g2(17, 0.0);
  const double s1 = NegSamplingUpdate<SerialAccess>(g1, src, d1, 1.0, 1.0,
                                                    -0.025);
  const double s2 = NegSamplingUpdate<HogwildAccess>(g2, src, d2, 1.0, 1.0,
                                                     -0.025);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(g1, g2);
}

// ------------------------------------------ scalar vs SIMD tolerance
//
// The SIMD path reorders accumulation, uses FMA, and routes sigmoid
// through the LUT, so it is tolerance-equal, never bit-equal. Sweeps run
// over every length (vector widths, tails, empty), on spans deliberately
// misaligned by one float, and over denormal inputs.

// One float past any vector alignment: data() + 1 is 4-byte aligned only.
std::span<float> Unaligned(std::vector<float>& buf) {
  return std::span<float>(buf).subspan(1);
}

TEST_F(KernelsTest, SimdDotRowsMatchesScalarWithinTolerance) {
  util::Rng rng(13);
  for (size_t n : kLengths) {
    std::vector<float> a_buf = RandomRow(rng, n + 1);
    std::vector<float> b_buf = RandomRow(rng, n + 1);
    const auto a = Unaligned(a_buf);
    const auto b = Unaligned(b_buf);
    SetMode(Mode::kScalar);
    const double scalar = DotRows<SerialAccess>(a, b);
    SetMode(Mode::kSimd);
    const double simd = DotRows<SerialAccess>(a, b);
    // float×float widened to double is exact; only the double summation
    // order differs between the paths.
    EXPECT_NEAR(simd, scalar, 1e-12) << "n=" << n;
  }
}

TEST_F(KernelsTest, SimdNegSamplingUpdateMatchesScalarWithinTolerance) {
  util::Rng rng(14);
  for (size_t n : kLengths) {
    for (double label : {1.0, 0.0}) {
      std::vector<float> src_buf = RandomRow(rng, n + 1);
      std::vector<float> dst_buf = RandomRow(rng, n + 1);
      std::vector<float> dst2_buf = dst_buf;
      const auto src = Unaligned(src_buf);
      std::vector<double> g1(n, 0.0), g2(n, 0.0);

      SetMode(Mode::kScalar);
      const double s1 = NegSamplingUpdate<SerialAccess>(
          g1, src, Unaligned(dst_buf), label, 1.0, -0.025);
      SetMode(Mode::kSimd);
      const double s2 = NegSamplingUpdate<SerialAccess>(
          g2, src, Unaligned(dst2_buf), label, 1.0, -0.025);

      EXPECT_NEAR(s2, s1, 1e-12);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(dst2_buf[k + 1], dst_buf[k + 1], 1e-5) << "n=" << n;
        EXPECT_NEAR(g2[k], g1[k], 1e-5) << "n=" << n;
      }
    }
  }
}

TEST_F(KernelsTest, SimdRemainingKernelsMatchScalarWithinTolerance) {
  util::Rng rng(15);
  const double lr = 0.03, l2 = 1e-4, g_b = 0.37, bias = -0.2;
  for (size_t n : kLengths) {
    const std::vector<float> x = RandomRow(rng, n);
    const std::vector<double> xd = RandomRowD(rng, n);
    const std::vector<double> grad = RandomRowD(rng, n);
    std::vector<double> w = RandomRowD(rng, n);
    std::vector<float> row = RandomRow(rng, n);
    std::vector<double> w2 = w;
    std::vector<float> row2 = row;
    std::vector<double> cg1(n, 0.1), cg2(n, 0.1);

    SetMode(Mode::kScalar);
    std::vector<float> ax1 = row;
    AxpyRows<SerialAccess>(ax1, 0.7, x);
    const double dw1 = DotWeights<SerialAccess>(bias, w, xd);
    const double df1 = DotF64F32<SerialAccess>(bias, w, x);
    ClassifierUpdate<SerialAccess>(cg1, w, x, g_b, lr, l2);
    ApplyGradDecay<SerialAccess>(row, grad, lr, l2);
    LogRegUpdate<SerialAccess>(w, xd, lr, g_b, l2);

    SetMode(Mode::kSimd);
    std::vector<float> ax2 = row2;
    AxpyRows<SerialAccess>(ax2, 0.7, x);
    const double dw2 = DotWeights<SerialAccess>(bias, w2, xd);
    const double df2 = DotF64F32<SerialAccess>(bias, w2, x);
    ClassifierUpdate<SerialAccess>(cg2, w2, x, g_b, lr, l2);
    ApplyGradDecay<SerialAccess>(row2, grad, lr, l2);
    LogRegUpdate<SerialAccess>(w2, xd, lr, g_b, l2);

    EXPECT_NEAR(dw2, dw1, 1e-12) << "n=" << n;
    EXPECT_NEAR(df2, df1, 1e-12) << "n=" << n;
    for (size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(ax2[k], ax1[k], 1e-6) << "n=" << n;
      EXPECT_NEAR(w2[k], w[k], 1e-12) << "n=" << n;
      EXPECT_NEAR(cg2[k], cg1[k], 1e-12) << "n=" << n;
      EXPECT_NEAR(row2[k], row[k], 1e-6) << "n=" << n;
    }
  }
}

TEST_F(KernelsTest, SimdKernelsHandleDenormalInputs) {
  // Denormal floats (< ~1.2e-38) must flow through the widen/narrow
  // conversions without traps or NaNs on both paths.
  const size_t n = 13;
  std::vector<float> src(n, 1e-41f);
  std::vector<float> d1(n, 1e-40f), d2(n, 1e-40f);
  std::vector<double> g1(n, 0.0), g2(n, 0.0);
  SetMode(Mode::kScalar);
  const double s1 = NegSamplingUpdate<SerialAccess>(g1, src, d1, 1.0, 1.0,
                                                    -0.025);
  SetMode(Mode::kSimd);
  const double s2 = NegSamplingUpdate<SerialAccess>(g2, src, d2, 1.0, 1.0,
                                                    -0.025);
  EXPECT_TRUE(std::isfinite(s1));
  EXPECT_TRUE(std::isfinite(s2));
  for (size_t k = 0; k < n; ++k) {
    EXPECT_TRUE(std::isfinite(d1[k]));
    EXPECT_TRUE(std::isfinite(d2[k]));
    EXPECT_NEAR(d2[k], d1[k], 1e-6);
  }
}

// ------------------------------------------ multi-row negative sampling
//
// NegSamplingRows scores a run of distinct rows before it updates any of
// them, so it must equal consecutive NegSamplingUpdate calls bit for bit
// on either path: per row the same lanes, grad in list order, and a
// repeated row's score reading the earlier update.

// Trains the rows `list` of a row pool (label 1 for the first, 0 after)
// against one source row, once through NegSamplingRows and once through
// one NegSamplingUpdate per row, and requires equal bits everywhere.
void ExpectRowsMatchConsecutiveUpdates(const std::vector<size_t>& list,
                                       size_t n, uint64_t seed) {
  util::Rng rng(seed);
  constexpr size_t kPool = 24;
  const std::vector<float> src = RandomRow(rng, n);
  std::vector<float> pool = RandomRow(rng, kPool * n);
  std::vector<float> pool_ref = pool;
  std::vector<double> grad = RandomRowD(rng, n);
  std::vector<double> grad_ref = grad;
  std::vector<float*> rows;
  std::vector<double> labels;
  for (size_t j = 0; j < list.size(); ++j) {
    rows.push_back(pool.data() + list[j] * n);
    labels.push_back(j == 0 ? 1.0 : 0.0);
  }
  std::vector<double> scores(list.size());
  NegSamplingRows<SerialAccess>(grad, src, rows, labels, 1.0, -0.05, scores);
  for (size_t j = 0; j < list.size(); ++j) {
    const double score = NegSamplingUpdate<SerialAccess>(
        grad_ref, src, std::span(pool_ref).subspan(list[j] * n, n),
        labels[j], 1.0, -0.05);
    EXPECT_EQ(scores[j], score) << "row " << j << ", n=" << n;
  }
  EXPECT_EQ(pool, pool_ref) << "n=" << n;
  EXPECT_EQ(grad, grad_ref) << "n=" << n;
}

TEST_F(KernelsTest, NegSamplingRowsMatchesConsecutiveUpdatesBitForBit) {
  // A list longer than any run, with every row distinct.
  std::vector<size_t> long_list;
  for (size_t j = 0; j < 3 * detail::kMaxRunRows + 1; ++j) {
    long_list.push_back(j % 24);
  }
  const std::vector<std::vector<size_t>> lists = {
      {7},                           // the positive only (λ = 0)
      {7, 3, 11, 0, 19, 5},          // λ = 5
      {7, 3, 11, 3, 19, 3},          // a noise row drawn three times
      {7, 7},                        // a negative equal to the positive row
      long_list,                     // longer than any run
      {1, 2, 3, 4, 5, 6, 7, 8, 1},   // a repeat right after a full run
  };
  for (const Mode mode : {Mode::kScalar, Mode::kSimd}) {
    SetMode(mode);
    uint64_t seed = 40;
    for (const auto& list : lists) {
      for (size_t n : {size_t{17}, size_t{64}}) {
        SCOPED_TRACE(mode == Mode::kScalar ? "scalar" : "simd");
        ExpectRowsMatchConsecutiveUpdates(list, n, ++seed);
      }
    }
  }
}

TEST_F(KernelsTest, NegSamplingRowsRunsEndAtRepeatsAndAtTheRunCap) {
  float rows[12][1];
  std::vector<float*> dst;
  for (size_t j = 0; j < 12; ++j) dst.push_back(rows[j]);
  EXPECT_EQ(detail::RunEnd(dst.data(), 0, 1), 1u);
  EXPECT_EQ(detail::RunEnd(dst.data(), 0, 6), 6u);
  EXPECT_EQ(detail::RunEnd(dst.data(), 0, 12), detail::kMaxRunRows);
  EXPECT_EQ(detail::RunEnd(dst.data(), 10, 12), 12u);
  dst[4] = dst[2];
  EXPECT_EQ(detail::RunEnd(dst.data(), 0, 12), 4u);
  EXPECT_EQ(detail::RunEnd(dst.data(), 3, 12), 3u + detail::kMaxRunRows);
  EXPECT_EQ(detail::RunEnd(dst.data(), 2, 12), 4u);
}

// ------------------------------------- trainer-level determinism at nt=1
//
// Scalar dispatch must make a full trainer run reproducible: two
// identical nt=1 LINE runs under DD_KERNELS=scalar give bit-equal
// embeddings in both halves (the same property the resume goldens pin
// through the checkpoint path, here pinned directly against dispatch).

TEST_F(KernelsTest, ScalarDispatchTrainerRunsAreBitIdentical) {
  data::GeneratorConfig net_config;
  net_config.num_nodes = 40;
  net_config.ties_per_node = 3.0;
  net_config.seed = 21;
  const auto net = data::GenerateStatusNetwork(net_config);
  embedding::LineConfig config;
  config.dimensions = 8;
  config.samples_per_arc = 20;
  SetMode(Mode::kScalar);
  const auto first = embedding::LineEmbedding::Train(net, config);
  const auto second = embedding::LineEmbedding::Train(net, config);
  ASSERT_EQ(first.dimensions(), second.dimensions());
  for (graph::NodeId u = 0; u < net.num_nodes(); ++u) {
    for (size_t k = 0; k < config.dimensions / 2; ++k) {
      EXPECT_EQ(first.FirstOrder(u)[k], second.FirstOrder(u)[k])
          << "node " << u << ", k=" << k;
      EXPECT_EQ(first.SecondOrder(u)[k], second.SecondOrder(u)[k])
          << "node " << u << ", k=" << k;
    }
  }
}

// ------------------------------------------------------------- CRC-32

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.Next());
  return out;
}

TEST_F(KernelsTest, Crc32KnownAnswerOnBothPaths) {
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32UpdateBytewise(0, data, 9), 0xCBF43926u);
}

// The fold covers the 16-byte-multiple prefix of inputs of 64 bytes or
// more; every length up to 4096 at every alignment crosses each boundary
// between the fold, its tail and the bytewise-only short inputs.
TEST_F(KernelsTest, Crc32FoldMatchesBytewiseAtEveryLengthAndAlignment) {
  if (!Crc32HasFold()) {
    GTEST_SKIP() << "no PCLMULQDQ and SSE4.1 on this host: Crc32Update is "
                    "the bytewise loop";
  }
  const std::vector<unsigned char> bytes = RandomBytes(4096 + 15, 5);
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + align, len),
                Crc32UpdateBytewise(0, bytes.data() + align, len))
          << "align " << align << ", length " << len;
    }
  }
}

TEST_F(KernelsTest, Crc32FoldMatchesBytewiseOnNineMebibytes) {
  if (!Crc32HasFold()) {
    GTEST_SKIP() << "no PCLMULQDQ and SSE4.1 on this host: Crc32Update is "
                    "the bytewise loop";
  }
  const std::vector<unsigned char> bytes = RandomBytes(9 << 20, 6);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            Crc32UpdateBytewise(0, bytes.data(), bytes.size()));
}

TEST_F(KernelsTest, Crc32ChainedCallsMatchOneCall) {
  const std::vector<unsigned char> bytes = RandomBytes(300, 7);
  const uint32_t whole = Crc32UpdateBytewise(0, bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    EXPECT_EQ(Crc32Update(Crc32(bytes.data(), split), bytes.data() + split,
                          bytes.size() - split),
              whole)
        << "split at " << split;
  }
}

}  // namespace
}  // namespace deepdirect::kernels
