// Learning-rate schedules shared by every SGD trainer.
//
// The repo's trainers all decay the learning rate linearly over the step
// budget, in one of two historical forms:
//   * clamped       — lr(t) = initial · max(min_fraction, 1 − t/T)
//                     (word2vec convention; LINE, DeepDirect)
//   * interpolated  — lr(t) = initial · (1 − (1 − min_fraction) · t/T)
//                     (logistic regression, MLP, ReDirect)
// Both end at initial · min_fraction; the clamped form flattens once the
// floor is reached while the interpolated form keeps decaying to it exactly
// at t = T. The formulas are kept verbatim so migrated trainers reproduce
// their historical float streams bit-for-bit.

#ifndef DEEPDIRECT_TRAIN_LR_SCHEDULE_H_
#define DEEPDIRECT_TRAIN_LR_SCHEDULE_H_

#include <algorithm>
#include <cstdint>

namespace deepdirect::train {

/// Linear learning-rate decay over a global step budget.
struct LrSchedule {
  enum class Decay {
    kClampedLinear = 0,       ///< initial · max(min_fraction, 1 − progress)
    kInterpolatedLinear = 1,  ///< initial · (1 − (1 − min_fraction)·progress)
  };

  double initial = 0.05;
  double min_fraction = 0.01;
  Decay decay = Decay::kClampedLinear;

  /// Learning rate at global step `step` of a `total`-step budget.
  double At(uint64_t step, uint64_t total) const {
    if (total == 0) return initial;
    const double progress =
        static_cast<double>(step) / static_cast<double>(total);
    if (decay == Decay::kClampedLinear) {
      return initial * std::max(min_fraction, 1.0 - progress);
    }
    return initial * (1.0 - (1.0 - min_fraction) * progress);
  }
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_LR_SCHEDULE_H_
