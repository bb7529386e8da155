// Generic SIMD kernel bodies, written once against a vector-wrapper type
// and instantiated per ISA (AVX2 / SSE2 / NEON). The wrapper `V` supplies:
//
//   V::kF32Lanes              float lanes per step (8 AVX2, 4 SSE2/NEON);
//                             double vectors hold kF32Lanes/2 lanes
//   V::F32, V::F64            register types
//   V::LoadF32/StoreF32       unaligned float vector load/store
//   V::LoadF64/StoreF64       unaligned double vector load/store
//   V::ZeroF64, V::Set1F64    constants
//   V::AddF32, V::SubF32      float lane arithmetic
//   V::AddF64, V::SubF64, V::MulF64   double lane arithmetic
//   V::MulAddF64(a, b, acc)   a·b + acc (FMA where the ISA has it)
//   V::WidenLo/WidenHi        lower/upper float half → double vector
//   V::NarrowF32(lo, hi)      two double vectors → one float vector
//   V::ReduceAddF64           horizontal sum of a double vector
//
// Every body widens float storage to double before multiplying — same
// precision contract as the scalar path — but accumulates lane-parallel
// and uses FMA, so results are tolerance-equal to scalar, not bit-equal.
// Tails shorter than a vector run the plain scalar recurrence.

#ifndef DEEPDIRECT_KERNELS_VEC_KERNELS_H_
#define DEEPDIRECT_KERNELS_VEC_KERNELS_H_

#include <cstddef>

#include "kernels/sigmoid.h"
#include "kernels/simd_ops.h"

namespace deepdirect::kernels::detail {

template <typename V>
struct VecKernels {
  static constexpr size_t kW = V::kF32Lanes;   // floats per step
  static constexpr size_t kH = kW / 2;         // doubles per vector

  static double DotF32(const float* a, const float* b, size_t n) {
    auto acc_lo = V::ZeroF64();
    auto acc_hi = V::ZeroF64();
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto av = V::LoadF32(a + i);
      const auto bv = V::LoadF32(b + i);
      acc_lo = V::MulAddF64(V::WidenLo(av), V::WidenLo(bv), acc_lo);
      acc_hi = V::MulAddF64(V::WidenHi(av), V::WidenHi(bv), acc_hi);
    }
    double acc = V::ReduceAddF64(V::AddF64(acc_lo, acc_hi));
    for (; i < n; ++i) {
      acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    return acc;
  }

  static double DotF64(double init, const double* w, const double* x,
                       size_t n) {
    auto accv = V::ZeroF64();
    size_t i = 0;
    for (; i + kH <= n; i += kH) {
      accv = V::MulAddF64(V::LoadF64(w + i), V::LoadF64(x + i), accv);
    }
    double acc = V::ReduceAddF64(accv);
    for (; i < n; ++i) acc += w[i] * x[i];
    return init + acc;
  }

  static double DotF64F32(double init, const double* w, const float* x,
                          size_t n) {
    auto acc_lo = V::ZeroF64();
    auto acc_hi = V::ZeroF64();
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto xv = V::LoadF32(x + i);
      acc_lo = V::MulAddF64(V::LoadF64(w + i), V::WidenLo(xv), acc_lo);
      acc_hi = V::MulAddF64(V::LoadF64(w + i + kH), V::WidenHi(xv), acc_hi);
    }
    double acc = V::ReduceAddF64(V::AddF64(acc_lo, acc_hi));
    for (; i < n; ++i) acc += w[i] * static_cast<double>(x[i]);
    return init + acc;
  }

  static void DotPairF64F32(double init, const double* w, const float* x1,
                            const float* x2, size_t n, double* out1,
                            double* out2) {
    auto a1_lo = V::ZeroF64(), a1_hi = V::ZeroF64();
    auto a2_lo = V::ZeroF64(), a2_hi = V::ZeroF64();
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto w_lo = V::LoadF64(w + i);
      const auto w_hi = V::LoadF64(w + i + kH);
      const auto x1v = V::LoadF32(x1 + i);
      const auto x2v = V::LoadF32(x2 + i);
      a1_lo = V::MulAddF64(w_lo, V::WidenLo(x1v), a1_lo);
      a1_hi = V::MulAddF64(w_hi, V::WidenHi(x1v), a1_hi);
      a2_lo = V::MulAddF64(w_lo, V::WidenLo(x2v), a2_lo);
      a2_hi = V::MulAddF64(w_hi, V::WidenHi(x2v), a2_hi);
    }
    double s1 = V::ReduceAddF64(V::AddF64(a1_lo, a1_hi));
    double s2 = V::ReduceAddF64(V::AddF64(a2_lo, a2_hi));
    for (; i < n; ++i) {
      s1 += w[i] * static_cast<double>(x1[i]);
      s2 += w[i] * static_cast<double>(x2[i]);
    }
    *out1 = init + s1;
    *out2 = init + s2;
  }

  static void AxpyF32(float* y, double alpha, const float* x, size_t n) {
    const auto av = V::Set1F64(alpha);
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto xv = V::LoadF32(x + i);
      const auto prod = V::NarrowF32(V::MulF64(V::WidenLo(xv), av),
                                     V::MulF64(V::WidenHi(xv), av));
      V::StoreF32(y + i, V::AddF32(V::LoadF32(y + i), prod));
    }
    for (; i < n; ++i) {
      y[i] += static_cast<float>(alpha * static_cast<double>(x[i]));
    }
  }

  // One row's fused update once its score is known:
  //   grad[k] += g·dst[k];  dst[k] += float(h·src[k]).
  static void NegSamplingApply(double* grad, const float* src, float* dst,
                               size_t n, double g, double h) {
    const auto gv = V::Set1F64(g);
    const auto hv = V::Set1F64(h);
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto dv = V::LoadF32(dst + i);
      const auto sv = V::LoadF32(src + i);
      V::StoreF64(grad + i,
                  V::MulAddF64(V::WidenLo(dv), gv, V::LoadF64(grad + i)));
      V::StoreF64(grad + i + kH,
                  V::MulAddF64(V::WidenHi(dv), gv, V::LoadF64(grad + i + kH)));
      const auto prod = V::NarrowF32(V::MulF64(V::WidenLo(sv), hv),
                                     V::MulF64(V::WidenHi(sv), hv));
      V::StoreF32(dst + i, V::AddF32(dv, prod));
    }
    for (; i < n; ++i) {
      const float dk = dst[i];
      grad[i] += g * static_cast<double>(dk);
      dst[i] = dk + static_cast<float>(h * static_cast<double>(src[i]));
    }
  }

  // Scores every row before it updates any, so the row loads overlap.
  static void NegSamplingRows(double* grad, const float* src,
                              float* const* dst, const double* labels,
                              size_t count, size_t n, double grad_scale,
                              double update_scale, double* scores) {
    for (size_t j = 0; j < count; ++j) scores[j] = DotF32(src, dst[j], n);
    for (size_t j = 0; j < count; ++j) {
      const double g = grad_scale * (SigmoidLut(scores[j]) - labels[j]);
      NegSamplingApply(grad, src, dst[j], n, g, update_scale * g);
    }
  }

  static void ApplyGrad(float* row, const double* grad, size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto gf =
          V::NarrowF32(V::LoadF64(grad + i), V::LoadF64(grad + i + kH));
      V::StoreF32(row + i, V::AddF32(V::LoadF32(row + i), gf));
    }
    for (; i < n; ++i) row[i] += static_cast<float>(grad[i]);
  }

  static void ApplyGradDecay(float* row, const double* grad, double lr,
                             double l2, size_t n) {
    const auto lrv = V::Set1F64(lr);
    const auto l2v = V::Set1F64(l2);
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto rv = V::LoadF32(row + i);
      const auto t_lo =
          V::MulF64(V::MulAddF64(V::WidenLo(rv), l2v, V::LoadF64(grad + i)),
                    lrv);
      const auto t_hi = V::MulF64(
          V::MulAddF64(V::WidenHi(rv), l2v, V::LoadF64(grad + i + kH)), lrv);
      V::StoreF32(row + i, V::SubF32(rv, V::NarrowF32(t_lo, t_hi)));
    }
    for (; i < n; ++i) {
      const float rk = row[i];
      row[i] = rk - static_cast<float>(
                        lr * (grad[i] + l2 * static_cast<double>(rk)));
    }
  }

  static void ClassifierUpdate(double* grad, double* w, const float* x,
                               double g, double lr, double l2, size_t n) {
    const auto gv = V::Set1F64(g);
    const auto lrv = V::Set1F64(lr);
    const auto l2v = V::Set1F64(l2);
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      const auto xv = V::LoadF32(x + i);
      const auto w_lo = V::LoadF64(w + i);
      const auto w_hi = V::LoadF64(w + i + kH);
      V::StoreF64(grad + i, V::MulAddF64(w_lo, gv, V::LoadF64(grad + i)));
      V::StoreF64(grad + i + kH,
                  V::MulAddF64(w_hi, gv, V::LoadF64(grad + i + kH)));
      const auto t_lo =
          V::MulAddF64(V::WidenLo(xv), gv, V::MulF64(w_lo, l2v));
      const auto t_hi =
          V::MulAddF64(V::WidenHi(xv), gv, V::MulF64(w_hi, l2v));
      V::StoreF64(w + i, V::SubF64(w_lo, V::MulF64(t_lo, lrv)));
      V::StoreF64(w + i + kH, V::SubF64(w_hi, V::MulF64(t_hi, lrv)));
    }
    for (; i < n; ++i) {
      const double wk = w[i];
      grad[i] += g * wk;
      w[i] = wk - lr * (g * static_cast<double>(x[i]) + l2 * wk);
    }
  }

  static void LogRegUpdate(double* w, const double* x, double lr, double g,
                           double l2, size_t n) {
    const auto gv = V::Set1F64(g);
    const auto lrv = V::Set1F64(lr);
    const auto l2v = V::Set1F64(l2);
    size_t i = 0;
    for (; i + kH <= n; i += kH) {
      const auto wv = V::LoadF64(w + i);
      const auto t = V::MulAddF64(V::LoadF64(x + i), gv, V::MulF64(wv, l2v));
      V::StoreF64(w + i, V::SubF64(wv, V::MulF64(t, lrv)));
    }
    for (; i < n; ++i) {
      const double wk = w[i];
      w[i] = wk - lr * (g * x[i] + l2 * wk);
    }
  }

  static Ops Table(const char* isa) {
    return Ops{isa,
               &DotF32,
               &DotF64,
               &DotF64F32,
               &DotPairF64F32,
               &AxpyF32,
               &NegSamplingRows,
               &ApplyGrad,
               &ApplyGradDecay,
               &ClassifierUpdate,
               &LogRegUpdate};
  }
};

}  // namespace deepdirect::kernels::detail

#endif  // DEEPDIRECT_KERNELS_VEC_KERNELS_H_
