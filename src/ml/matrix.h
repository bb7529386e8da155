// Row-major dense float matrix used for embedding tables (M and N in the
// paper) and other per-item feature storage. Float precision halves memory
// against double, which matters when |E| × l reaches tens of millions of
// entries; model parameters elsewhere stay double.

#ifndef DEEPDIRECT_ML_MATRIX_H_
#define DEEPDIRECT_ML_MATRIX_H_

#include <span>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace deepdirect::ml {

/// Row-major dense matrix of floats.
class Matrix {
 public:
  /// Creates a rows × cols matrix of zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Mutable view of row `i`.
  std::span<float> Row(size_t i) {
    DD_CHECK_LT(i, rows_);
    return {data_.data() + i * cols_, cols_};
  }

  /// Const view of row `i`.
  std::span<const float> Row(size_t i) const {
    DD_CHECK_LT(i, rows_);
    return {data_.data() + i * cols_, cols_};
  }

  float& At(size_t i, size_t j) {
    DD_CHECK_LT(i, rows_);
    DD_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }
  float At(size_t i, size_t j) const {
    DD_CHECK_LT(i, rows_);
    DD_CHECK_LT(j, cols_);
    return data_[i * cols_ + j];
  }

  /// Raw storage, row-major.
  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// Fills entries i.i.d. uniform in [lo, hi). The conventional skip-gram
  /// init is [-0.5/l, 0.5/l).
  void FillUniform(util::Rng& rng, float lo, float hi);

 private:
  size_t rows_, cols_;
  std::vector<float> data_;
};

/// Dot product of equal-length spans.
double Dot(std::span<const float> a, std::span<const float> b);

/// Numerically safe logistic sigmoid, clamped to ±kernels::kSigmoidClamp
/// (word2vec-style ±6) so extreme and infinite arguments saturate to
/// σ(±6) instead of drifting toward 0/1 — consistent with the SIMD
/// sigmoid lookup table's domain. NaN propagates.
double Sigmoid(double x);

/// log(sigmoid(x)) computed stably, clamped to the same ±6 range as
/// Sigmoid (extreme arguments give the finite value at the clamp bound).
double LogSigmoid(double x);

}  // namespace deepdirect::ml

#endif  // DEEPDIRECT_ML_MATRIX_H_
