// Binary logistic regression trained with SGD and L2 regularization.
//
// Used twice by the paper: as the directionality-function head of both HF
// (Eq. 5) and DeepDirect's D-Step (Eq. 26, trained "with the L2
// regularization"), warm-startable from the E-Step classifier parameters.

#ifndef DEEPDIRECT_ML_LOGISTIC_REGRESSION_H_
#define DEEPDIRECT_ML_LOGISTIC_REGRESSION_H_

#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "train/checkpoint.h"
#include "train/lr_schedule.h"
#include "util/random.h"

namespace deepdirect::ml {

/// Training hyper-parameters for LogisticRegression::Train.
struct LogisticRegressionConfig {
  size_t epochs = 30;
  double learning_rate = 0.1;
  /// Linear learning-rate decay to `learning_rate * min_lr_fraction`.
  double min_lr_fraction = 0.1;
  /// L2 penalty coefficient on the weights (not the bias).
  double l2 = 1e-4;
  uint64_t seed = 1;
  /// Shuffle example order each epoch.
  bool shuffle = true;
  /// SGD workers (0 = all hardware threads). 1 runs the deterministic
  /// serial path; > 1 runs Hogwild, where each worker trains a private
  /// copy of (w, b) merged into the shared one every 64 of its steps (see
  /// train/sgd_driver.h). Fast, but not bit-reproducible.
  size_t num_threads = 1;
  /// Telemetry prefix for the obs registry (one ".run_loss" entry per
  /// epoch); empty disables recording. Hosts that embed this trainer set a
  /// distinguishing prefix (e.g. DeepDirect's D-Step).
  std::string metrics_prefix = "train.logreg";
  /// Crash-safe checkpoint/resume (off unless `checkpoint.dir` is set).
  /// The default trainer tag is "logreg"; hosts that embed this trainer
  /// set a distinguishing tag.
  train::CheckpointOptions checkpoint;

  /// The decay schedule these parameters describe.
  train::LrSchedule Schedule() const {
    return {learning_rate, min_lr_fraction,
            train::LrSchedule::Decay::kInterpolatedLinear};
  }
};

/// Binary logistic regression d(x) = sigmoid(w·x + b).
class LogisticRegression {
 public:
  /// Creates an untrained model with zero weights over `num_features`.
  explicit LogisticRegression(size_t num_features)
      : weights_(num_features, 0.0), bias_(0.0) {}

  /// Creates a model with the given initial parameters (warm start).
  LogisticRegression(std::vector<double> weights, double bias)
      : weights_(std::move(weights)), bias_(bias) {}

  size_t num_features() const { return weights_.size(); }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// Probability of the positive class for one example.
  double Predict(std::span<const double> features) const;

  /// Raw linear score w·x + b.
  double Score(std::span<const double> features) const;

  /// Predict() over one f32 embedding row, without widening it into a
  /// buffer: the score accumulates b first, then w[k]·double(row[k]) in
  /// ascending k, the order of Score() on the widened row.
  double PredictRow(std::span<const float> row) const;

  /// Trains by weighted SGD on cross-entropy + L2. Existing parameters are
  /// the starting point (zero for a fresh model). Returns the final average
  /// training loss (cross-entropy + L2 term), useful for convergence tests.
  double Train(const Dataset& data, const LogisticRegressionConfig& config);

 private:
  std::vector<double> weights_;
  double bias_;
};

}  // namespace deepdirect::ml

#endif  // DEEPDIRECT_ML_LOGISTIC_REGRESSION_H_
