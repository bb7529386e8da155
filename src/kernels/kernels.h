// Public kernel API: the hot-loop primitives shared by every SGD trainer
// (DeepDirect E-step, D-step logistic regression, LINE). Each primitive is
// templated on an access policy `A` (train::SerialAccess /
// train::HogwildAccess — any type with `kConcurrent`, `Load`, `Store`) and
// picks one of two paths per call:
//
//   * exact scalar — policy-tagged loads/stores, double accumulation in
//     argument order, sigmoid via kernels::Sigmoid. With A = SerialAccess
//     this reproduces the historical trainer arithmetic bit-for-bit; the
//     nt=1 resume goldens pin that contract.
//   * SIMD — the raw-pointer ops table from dispatch (AVX2/SSE2/NEON, or
//     the portable fallback). Lane-parallel double accumulation, FMA where
//     the ISA has it, sigmoid via the ±6 LUT: tolerance-equal to scalar
//     (tests/kernels_test.cc pins the bounds), never bit-equal.
//
// VectorizedPath<A>() gates the SIMD path. Vector loads cannot be tagged
// atomic, so under HogwildAccess the SIMD kernels race on parameter rows —
// benign in the Hogwild model, but a data race to ThreadSanitizer. TSan
// builds therefore route concurrent callers back to the policy-scalar
// path; serial callers vectorize everywhere.

#ifndef DEEPDIRECT_KERNELS_KERNELS_H_
#define DEEPDIRECT_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "kernels/dispatch.h"
#include "kernels/sigmoid.h"
#include "kernels/simd_ops.h"

#if defined(__SANITIZE_THREAD__)
#define DEEPDIRECT_KERNELS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DEEPDIRECT_KERNELS_TSAN 1
#endif
#endif
#ifndef DEEPDIRECT_KERNELS_TSAN
#define DEEPDIRECT_KERNELS_TSAN 0
#endif

namespace deepdirect::kernels {

/// True when policy `A` may take the raw SIMD kernels: always for serial
/// access; for concurrent access only when the build is not under
/// ThreadSanitizer (raw vector loads/stores would be flagged races).
template <typename A>
constexpr bool VectorizedPath() {
  return !(DEEPDIRECT_KERNELS_TSAN && A::kConcurrent);
}

namespace detail {

/// One dispatch decision per call site: SIMD table when enabled and the
/// policy admits raw-pointer access.
template <typename A>
inline bool UseSimd() {
  return VectorizedPath<A>() && SimdEnabled();
}

/// Most rows one run of NegSamplingRows scores before it updates any. Six
/// (the positive and λ = 5 negatives) fit in one run.
inline constexpr size_t kMaxRunRows = 8;

/// End of the NegSamplingRows run that starts at dst[begin]: the first
/// later index whose row repeats a row of the run (its score must read
/// the earlier update), begin + kMaxRunRows, or count, whichever is first.
inline size_t RunEnd(float* const* dst, size_t begin, size_t count) {
  const size_t limit =
      count - begin < kMaxRunRows ? count : begin + kMaxRunRows;
  for (size_t end = begin + 1; end < limit; ++end) {
    for (size_t k = begin; k < end; ++k) {
      if (dst[k] == dst[end]) return end;
    }
  }
  return limit;
}

}  // namespace detail

/// Σ a[i]·b[i] with double accumulation over float rows (the embedding
/// score kernel). Exact path matches ml::Dot term-for-term.
template <typename A>
inline double DotRows(std::span<const float> a, std::span<const float> b) {
  if (detail::UseSimd<A>()) {
    return detail::ActiveOps().dot_f32(a.data(), b.data(), a.size());
  }
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(A::Load(a[i])) *
           static_cast<double>(A::Load(b[i]));
  }
  return acc;
}

/// y[i] += float(alpha · x[i]) — the row-update kernel (float-rounded
/// product added to each entry).
template <typename A>
inline void AxpyRows(std::span<float> y, double alpha,
                     std::span<const float> x) {
  if (detail::UseSimd<A>()) {
    detail::ActiveOps().axpy_f32(y.data(), alpha, x.data(), y.size());
    return;
  }
  for (size_t i = 0; i < y.size(); ++i) {
    A::Store(y[i], A::Load(y[i]) +
                       static_cast<float>(
                           alpha * static_cast<double>(A::Load(x[i]))));
  }
}

/// Fused negative-sampling steps of the rows dst[0], dst[1], … against one
/// source row, in list order. Row j, with label y_j:
///
///   score_j = Σ src[k]·dst_j[k]
///   g       = grad_scale · (σ(score_j) − y_j)
///   grad[k] += g · dst_j[k]
///   dst_j[k] += float(update_scale · g · src[k])
///
/// writing score_j to scores[j] (callers feed it to LogSigmoid for loss
/// tracking). The list is cut into runs of distinct rows (detail::RunEnd):
/// a run computes all its scores before it applies any update, so the
/// row loads overlap, and a row that repeats starts a new run, so its
/// score reads the earlier update. `src` must not alias any dst row and
/// `grad` none of the rows; then the result equals consecutive
/// NegSamplingUpdate calls bit for bit on either path, because every
/// update keeps its per-lane sequence and grad accumulates in list order.
/// The (label, grad_scale, update_scale) triple expresses each trainer's
/// historical formula exactly in scalar dispatch:
///   E-step pos/neg     (1|0,  1,  −lr)   g = σ−y,        row −= lr·g·src
///   LINE pos/neg       (1|0, −lr,  1)    g = (y−σ)·lr,   row += g·src
/// (IEEE sign-flip and multiply-commute identities make the unified form
/// bit-identical to the per-trainer originals.)
template <typename A>
inline void NegSamplingRows(std::span<double> grad, std::span<const float> src,
                            std::span<float* const> dst,
                            std::span<const double> labels, double grad_scale,
                            double update_scale, std::span<double> scores) {
  const size_t n = src.size();
  const bool simd = detail::UseSimd<A>();
  for (size_t begin = 0, end = 0; begin < dst.size(); begin = end) {
    end = detail::RunEnd(dst.data(), begin, dst.size());
    if (simd) {
      detail::ActiveOps().neg_sampling_rows(
          grad.data(), src.data(), dst.data() + begin, labels.data() + begin,
          end - begin, n, grad_scale, update_scale, scores.data() + begin);
      continue;
    }
    for (size_t j = begin; j < end; ++j) {
      double score = 0.0;
      for (size_t i = 0; i < n; ++i) {
        score += static_cast<double>(A::Load(src[i])) *
                 static_cast<double>(A::Load(dst[j][i]));
      }
      scores[j] = score;
    }
    for (size_t j = begin; j < end; ++j) {
      const double g = grad_scale * (Sigmoid(scores[j]) - labels[j]);
      const double h = update_scale * g;
      float* const row = dst[j];
      for (size_t i = 0; i < n; ++i) {
        const float dk = A::Load(row[i]);
        grad[i] += g * static_cast<double>(dk);
        A::Store(row[i], dk + static_cast<float>(
                                  h * static_cast<double>(A::Load(src[i]))));
      }
    }
  }
}

/// The one-row case of NegSamplingRows; returns the score.
template <typename A>
inline double NegSamplingUpdate(std::span<double> grad,
                                std::span<const float> src,
                                std::span<float> dst, double label,
                                double grad_scale, double update_scale) {
  float* const row = dst.data();
  double score = 0.0;
  NegSamplingRows<A>(grad, src, {&row, 1}, {&label, 1}, grad_scale,
                     update_scale, {&score, 1});
  return score;
}

/// init + Σ w[i]·x[i] — double weights against a float row (E-step
/// classifier score; init is the bias so accumulation order matches the
/// historical `score = b; score += w·x` loop).
template <typename A>
inline double DotF64F32(double init, std::span<const double> w,
                        std::span<const float> x) {
  if (detail::UseSimd<A>()) {
    return detail::ActiveOps().dot_f64f32(init, w.data(), x.data(), w.size());
  }
  double acc = init;
  for (size_t i = 0; i < w.size(); ++i) {
    acc += A::Load(w[i]) * static_cast<double>(A::Load(x[i]));
  }
  return acc;
}

/// Two DotF64F32 against the same weights, sharing the weight loads (the
/// E-step triad pair score).
template <typename A>
inline void DotPairF64F32(double init, std::span<const double> w,
                          std::span<const float> x1,
                          std::span<const float> x2, double* out1,
                          double* out2) {
  if (detail::UseSimd<A>()) {
    detail::ActiveOps().dot_pair_f64f32(init, w.data(), x1.data(), x2.data(),
                                        w.size(), out1, out2);
    return;
  }
  double s1 = init;
  double s2 = init;
  for (size_t i = 0; i < w.size(); ++i) {
    const double wk = A::Load(w[i]);
    s1 += wk * static_cast<double>(A::Load(x1[i]));
    s2 += wk * static_cast<double>(A::Load(x2[i]));
  }
  *out1 = s1;
  *out2 = s2;
}

/// init + Σ w[i]·x[i] over double spans with policy loads on w only (the
/// D-step score: features are worker-private, weights are shared).
template <typename A>
inline double DotWeights(double init, std::span<const double> w,
                         std::span<const double> x) {
  if (detail::UseSimd<A>()) {
    return detail::ActiveOps().dot_f64(init, w.data(), x.data(), w.size());
  }
  double acc = init;
  for (size_t i = 0; i < w.size(); ++i) acc += A::Load(w[i]) * x[i];
  return acc;
}

/// row[i] += float(grad[i]) — apply an accumulated double gradient to a
/// float embedding row.
template <typename A>
inline void ApplyGrad(std::span<float> row, std::span<const double> grad) {
  if (detail::UseSimd<A>()) {
    detail::ActiveOps().apply_grad(row.data(), grad.data(), row.size());
    return;
  }
  for (size_t i = 0; i < row.size(); ++i) {
    A::Store(row[i], A::Load(row[i]) + static_cast<float>(grad[i]));
  }
}

/// row[i] −= float(lr · (grad[i] + l2 · row[i])) — gradient application
/// with L2 row decay (E-step line 15).
template <typename A>
inline void ApplyGradDecay(std::span<float> row, std::span<const double> grad,
                           double lr, double l2) {
  if (detail::UseSimd<A>()) {
    detail::ActiveOps().apply_grad_decay(row.data(), grad.data(), lr, l2,
                                         row.size());
    return;
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const float rk = A::Load(row[i]);
    A::Store(row[i],
             rk - static_cast<float>(
                      lr * (grad[i] + l2 * static_cast<double>(rk))));
  }
}

/// Coupled E-step classifier update (Eqs. 22–23):
///   grad[i] += g · w[i];   w[i] −= lr · (g · x[i] + l2 · w[i]).
template <typename A>
inline void ClassifierUpdate(std::span<double> grad, std::span<double> w,
                             std::span<const float> x, double g, double lr,
                             double l2) {
  if (detail::UseSimd<A>()) {
    detail::ActiveOps().classifier_update(grad.data(), w.data(), x.data(), g,
                                          lr, l2, w.size());
    return;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    const double wk = A::Load(w[i]);
    grad[i] += g * wk;
    A::Store(w[i],
             wk - lr * (g * static_cast<double>(A::Load(x[i])) + l2 * wk));
  }
}

/// D-step weight update: w[i] −= lr · (g · x[i] + l2 · w[i]) with policy
/// access on w (features x are worker-private doubles).
template <typename A>
inline void LogRegUpdate(std::span<double> w, std::span<const double> x,
                         double lr, double g, double l2) {
  if (detail::UseSimd<A>()) {
    detail::ActiveOps().logreg_update(w.data(), x.data(), lr, g, l2,
                                      w.size());
    return;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    const double wk = A::Load(w[i]);
    A::Store(w[i], wk - lr * (g * x[i] + l2 * wk));
  }
}

/// Asks the cache for every line of `row` ahead of its use. A hint only:
/// it changes no value, and a row on a page that is not mapped in is not
/// faulted in.
inline void PrefetchRow(std::span<const float> row) {
  constexpr uintptr_t kLine = 64;
  const auto begin = reinterpret_cast<uintptr_t>(row.data()) & ~(kLine - 1);
  const auto end = reinterpret_cast<uintptr_t>(row.data() + row.size());
  for (uintptr_t at = begin; at < end; at += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(at));
  }
}

}  // namespace deepdirect::kernels

#endif  // DEEPDIRECT_KERNELS_KERNELS_H_
