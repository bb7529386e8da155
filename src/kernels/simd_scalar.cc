// Portable fallback ops table: plain loops that follow the SIMD numeric
// conventions (sigmoid via the LUT, same recurrences otherwise). Used when
// the build carries no vector ISA for the host, and by tests that need the
// SIMD-convention semantics without caring about the instruction set. The
// bit-exact compatibility path lives in kernels.h, not here.

#include "kernels/sigmoid.h"
#include "kernels/simd_ops.h"

namespace deepdirect::kernels::detail {
namespace {

double DotF32(const float* a, const float* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double DotF64(double init, const double* w, const double* x, size_t n) {
  double acc = init;
  for (size_t i = 0; i < n; ++i) acc += w[i] * x[i];
  return acc;
}

double DotF64F32(double init, const double* w, const float* x, size_t n) {
  double acc = init;
  for (size_t i = 0; i < n; ++i) acc += w[i] * static_cast<double>(x[i]);
  return acc;
}

void DotPairF64F32(double init, const double* w, const float* x1,
                   const float* x2, size_t n, double* out1, double* out2) {
  double s1 = init;
  double s2 = init;
  for (size_t i = 0; i < n; ++i) {
    const double wk = w[i];
    s1 += wk * static_cast<double>(x1[i]);
    s2 += wk * static_cast<double>(x2[i]);
  }
  *out1 = s1;
  *out2 = s2;
}

void AxpyF32(float* y, double alpha, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] += static_cast<float>(alpha * static_cast<double>(x[i]));
  }
}

void NegSamplingRows(double* grad, const float* src, float* const* dst,
                     const double* labels, size_t count, size_t n,
                     double grad_scale, double update_scale,
                     double* scores) {
  for (size_t j = 0; j < count; ++j) scores[j] = DotF32(src, dst[j], n);
  for (size_t j = 0; j < count; ++j) {
    const double g = grad_scale * (SigmoidLut(scores[j]) - labels[j]);
    const double h = update_scale * g;
    float* const row = dst[j];
    for (size_t i = 0; i < n; ++i) {
      const float dk = row[i];
      grad[i] += g * static_cast<double>(dk);
      row[i] = dk + static_cast<float>(h * static_cast<double>(src[i]));
    }
  }
}

void ApplyGrad(float* row, const double* grad, size_t n) {
  for (size_t i = 0; i < n; ++i) row[i] += static_cast<float>(grad[i]);
}

void ApplyGradDecay(float* row, const double* grad, double lr, double l2,
                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float rk = row[i];
    row[i] = rk - static_cast<float>(
                      lr * (grad[i] + l2 * static_cast<double>(rk)));
  }
}

void ClassifierUpdate(double* grad, double* w, const float* x, double g,
                      double lr, double l2, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double wk = w[i];
    grad[i] += g * wk;
    w[i] = wk - lr * (g * static_cast<double>(x[i]) + l2 * wk);
  }
}

void LogRegUpdate(double* w, const double* x, double lr, double g, double l2,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double wk = w[i];
    w[i] = wk - lr * (g * x[i] + l2 * wk);
  }
}

}  // namespace

const Ops& ScalarOps() {
  static const Ops ops{"scalar",         &DotF32,
                       &DotF64,          &DotF64F32,
                       &DotPairF64F32,   &AxpyF32,
                       &NegSamplingRows, &ApplyGrad,
                       &ApplyGradDecay,  &ClassifierUpdate,
                       &LogRegUpdate};
  return ops;
}

}  // namespace deepdirect::kernels::detail
