#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "kernels/kernels.h"
#include "ml/matrix.h"
#include "train/sgd_driver.h"

namespace deepdirect::ml {

double LogisticRegression::Score(std::span<const double> features) const {
  DD_CHECK_EQ(features.size(), weights_.size());
  double score = bias_;
  for (size_t j = 0; j < weights_.size(); ++j) {
    score += weights_[j] * features[j];
  }
  return score;
}

double LogisticRegression::Predict(std::span<const double> features) const {
  return Sigmoid(Score(features));
}

double LogisticRegression::PredictRow(std::span<const float> row) const {
  DD_CHECK_EQ(row.size(), weights_.size());
  double score = bias_;
  for (size_t k = 0; k < weights_.size(); ++k) {
    score += weights_[k] * static_cast<double>(row[k]);
  }
  return Sigmoid(score);
}

double LogisticRegression::Train(const Dataset& data,
                                 const LogisticRegressionConfig& config) {
  DD_CHECK_EQ(data.num_features(), weights_.size());
  if (data.size() == 0) return 0.0;

  util::Rng rng(config.seed);
  std::vector<uint64_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  const uint64_t n = data.size();
  const uint64_t total_steps = config.epochs * n;
  double last_epoch_loss = 0.0;

  // The driver's dense block: w followed by b. Every step reads and
  // rewrites all of it.
  const size_t d = weights_.size();
  std::vector<double> params(weights_);
  params.push_back(bias_);

  // Every sample is visited exactly once per epoch, so the normalizer is
  // epoch-invariant.
  double weight_total = 0.0;
  for (size_t i = 0; i < n; ++i) weight_total += data.Weight(i);

  train::SgdOptions options;
  options.steps = total_steps;
  options.steps_per_epoch = n;
  options.num_threads = config.num_threads;
  options.lr = config.Schedule();
  options.shard_seed = config.seed;  // body draws no randomness; unused
  options.metrics_prefix = config.metrics_prefix;
  options.epoch_start = [&](uint64_t) {
    if (config.shuffle) rng.Shuffle(order);
  };
  options.epoch_end = [&](const train::EpochEnd& boundary) {
    double l2_term = 0.0;
    for (size_t k = 0; k < d; ++k) l2_term += params[k] * params[k];
    last_epoch_loss =
        (weight_total > 0 ? boundary.loss / weight_total : 0.0) +
        0.5 * config.l2 * l2_term;
  };

  // The shuffled visit order is cumulative state (each epoch permutes the
  // previous epoch's order), so it is part of the snapshot alongside the
  // parameters. Only a checkpointed run hashes its input: the samples and
  // the parameters it starts from.
  train::CheckpointOptions ckpt_options = config.checkpoint;
  if (ckpt_options.trainer.empty()) ckpt_options.trainer = "logreg";
  train::InputHash input;
  if (!ckpt_options.dir.empty()) {
    for (size_t i = 0; i < n; ++i) {
      input.AddAll(data.Row(i));
      input.Add(data.Label(i));
      input.Add(data.Weight(i));
    }
    input.AddAll(params);
  }
  const std::span<double> w_and_b(params);
  train::Checkpointer checkpointer(
      ckpt_options,
      train::RunShape{total_steps, n, config.seed, options.lr, input.value()},
      train::kLogRegCheckpoint,
      {std::as_writable_bytes(w_and_b.first(d)),
       std::as_writable_bytes(w_and_b.subspan(d)),
       std::as_writable_bytes(std::span(order)),
       std::as_writable_bytes(std::span(&last_epoch_loss, 1))});
  options.start_epoch = checkpointer.Resume(rng);
  options.checkpointer = &checkpointer;
  options.dense = params;

  train::SgdDriver driver(options);
  driver.Run(rng, [&](auto access, const train::SgdStep& ctx) -> double {
    using A = decltype(access);
    const size_t i = order[ctx.step % n];
    const auto x = data.Row(i);
    const double y = data.Label(i);
    const double sample_weight = data.Weight(i);

    const std::span<double> w = ctx.dense.first(d);
    double& b = ctx.dense[d];

    const double score = kernels::DotWeights<A>(A::Load(b), w, x);
    const double p = Sigmoid(score);
    // Gradient of weighted cross-entropy wrt score is weight * (p - y).
    const double gradient = sample_weight * (p - y);

    kernels::LogRegUpdate<A>(w, x, ctx.lr, gradient, config.l2);
    A::Store(b, A::Load(b) - ctx.lr * gradient);

    const double eps = 1e-12;
    return -sample_weight *
           (y * std::log(p + eps) + (1.0 - y) * std::log(1.0 - p + eps));
  });
  weights_.assign(params.begin(), params.begin() + d);
  bias_ = params[d];
  return last_epoch_loss;
}

}  // namespace deepdirect::ml
