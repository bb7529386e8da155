// Internal SIMD ops table: raw-pointer implementations of every kernel,
// one table per vector ISA, selected once per process by dispatch.cc.
//
// Tables are produced by instantiating the generic bodies in
// vec_kernels.h with an ISA wrapper type (simd_avx2.cc, simd_sse2.cc,
// simd_neon.cc) or by the portable scalar-shaped fallback
// (simd_scalar.cc, used when the build carries no vector ISA for the
// host). Each ISA lives in its own translation unit so per-file target
// flags (-mavx2 -mfma) never leak vector instructions into code that runs
// before the CPU check.
//
// These functions take plain pointers — no access-policy tagging. On the
// Hogwild path that makes the parameter updates benign data races in the
// classic Hogwild sense rather than tagged relaxed atomics; kernels.h
// routes concurrent callers back to the policy-scalar path under
// ThreadSanitizer so sanitizer runs stay data-race-free (see kernels.h).

#ifndef DEEPDIRECT_KERNELS_SIMD_OPS_H_
#define DEEPDIRECT_KERNELS_SIMD_OPS_H_

#include <cstddef>

namespace deepdirect::kernels::detail {

/// One vector ISA's kernel implementations. Pointer arguments follow the
/// public API in kernels.h; sizes are element counts.
struct Ops {
  const char* isa;

  /// Σ a[i]·b[i], double accumulation over float rows.
  double (*dot_f32)(const float* a, const float* b, size_t n);
  /// init + Σ w[i]·x[i] over double spans.
  double (*dot_f64)(double init, const double* w, const double* x, size_t n);
  /// init + Σ w[i]·(double)x[i], double weights against a float row.
  double (*dot_f64f32)(double init, const double* w, const float* x,
                       size_t n);
  /// Two dot_f64f32 sharing the weight loads: out1/out2 both start at
  /// init.
  void (*dot_pair_f64f32)(double init, const double* w, const float* x1,
                          const float* x2, size_t n, double* out1,
                          double* out2);
  /// y[i] += (float)(alpha · x[i]).
  void (*axpy_f32)(float* y, double alpha, const float* x, size_t n);
  /// Fused negative-sampling updates of `count` distinct rows dst[j]
  /// against one source row: scores every row, then updates them in list
  /// order; writes row j's dot score to scores[j]. See
  /// kernels.h::NegSamplingRows for the exact recurrence.
  void (*neg_sampling_rows)(double* grad, const float* src,
                            float* const* dst, const double* labels,
                            size_t count, size_t n, double grad_scale,
                            double update_scale, double* scores);
  /// row[i] += (float)grad[i].
  void (*apply_grad)(float* row, const double* grad, size_t n);
  /// row[i] -= (float)(lr · (grad[i] + l2 · row[i])).
  void (*apply_grad_decay)(float* row, const double* grad, double lr,
                           double l2, size_t n);
  /// Coupled E-step classifier update:
  ///   grad[i] += g · w[i];  w[i] -= lr · (g · x[i] + l2 · w[i]).
  void (*classifier_update)(double* grad, double* w, const float* x,
                            double g, double lr, double l2, size_t n);
  /// Logistic-regression weight update:
  ///   w[i] -= lr · (g · x[i] + l2 · w[i]).
  void (*logreg_update)(double* w, const double* x, double lr, double g,
                        double l2, size_t n);
};

/// Portable fallback table (plain loops, SIMD numeric conventions).
const Ops& ScalarOps();

#if defined(__x86_64__) || defined(__i386__)
const Ops& Avx2Ops();
const Ops& Sse2Ops();
#endif
#if defined(__aarch64__)
const Ops& NeonOps();
#endif

/// The best table for this host, resolved once (cpuid on x86).
const Ops& ActiveOps();

}  // namespace deepdirect::kernels::detail

#endif  // DEEPDIRECT_KERNELS_SIMD_OPS_H_
