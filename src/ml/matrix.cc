#include "ml/matrix.h"

#include <cmath>

#include "kernels/sigmoid.h"

namespace deepdirect::ml {

void Matrix::FillUniform(util::Rng& rng, float lo, float hi) {
  for (float& v : data_) {
    v = static_cast<float>(rng.NextDoubleIn(lo, hi));
  }
}

double Dot(std::span<const float> a, std::span<const float> b) {
  DD_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double Sigmoid(double x) { return kernels::Sigmoid(x); }

double LogSigmoid(double x) {
  // Clamp to the same ±kSigmoidClamp range as Sigmoid so the loss and its
  // gradient saturate at the same point (extreme and infinite scores give
  // finite, consistent values).
  if (x > kernels::kSigmoidClamp) x = kernels::kSigmoidClamp;
  if (x < -kernels::kSigmoidClamp) x = -kernels::kSigmoidClamp;
  // log(1/(1+e^-x)) = -log1p(e^-x) for x >= 0; x - log1p(e^x) otherwise.
  if (x >= 0.0) return -std::log1p(std::exp(-x));
  return x - std::log1p(std::exp(x));
}

}  // namespace deepdirect::ml
