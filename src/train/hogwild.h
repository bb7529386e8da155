// Memory-access policies for shared-parameter SGD (Hogwild!, Niu et al.).
//
// Trainer step bodies are templated on an access policy so one body serves
// both execution modes:
//   * SerialAccess  — plain loads/stores. Compiles to exactly the
//     pre-refactor arithmetic, so the single-threaded path stays
//     bit-identical to the historical trainers.
//   * HogwildAccess — relaxed std::atomic_ref loads/stores. Lock-free
//     sparse updates race benignly (the Hogwild model), but every access
//     is a tagged atomic, so the code is data-race-free in the C++ memory
//     model and runs clean under ThreadSanitizer. On x86-64 a relaxed
//     float/double load/store compiles to a plain mov, so the policy costs
//     nothing on the hot path.
//
// Only sparse parameters — embedding rows, of which one step touches a
// few — are shared this way. A block that every step reads and writes in
// full (a linear classifier's weights and bias) is not: SgdDriver gives
// each Hogwild worker a private copy of it and merges the copies every
// 64 worker steps and at each chunk's end (see train/sgd_driver.h). The
// body still reaches the copy through the policy; only its own worker
// touches a copy, so those accesses never race.
//
// The row kernels that take a policy live in the kernel layer
// (src/kernels/kernels.h), which dispatches each call between the exact
// policy-scalar loops and the SIMD ops table — see kernels/dispatch.h for
// the mode switch.

#ifndef DEEPDIRECT_TRAIN_HOGWILD_H_
#define DEEPDIRECT_TRAIN_HOGWILD_H_

#include <atomic>
#include <span>

#include "kernels/kernels.h"

namespace deepdirect::train {

/// Plain access: the deterministic single-worker path.
struct SerialAccess {
  static constexpr bool kConcurrent = false;
  static float Load(const float& x) { return x; }
  static double Load(const double& x) { return x; }
  static void Store(float& x, float v) { x = v; }
  static void Store(double& x, double v) { x = v; }
};

/// Relaxed-atomic access: the lock-free multi-worker path.
struct HogwildAccess {
  static constexpr bool kConcurrent = true;
  static float Load(const float& x) {
    return std::atomic_ref<float>(const_cast<float&>(x))
        .load(std::memory_order_relaxed);
  }
  static double Load(const double& x) {
    return std::atomic_ref<double>(const_cast<double&>(x))
        .load(std::memory_order_relaxed);
  }
  static void Store(float& x, float v) {
    std::atomic_ref<float>(x).store(v, std::memory_order_relaxed);
  }
  static void Store(double& x, double v) {
    std::atomic_ref<double>(x).store(v, std::memory_order_relaxed);
  }
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_HOGWILD_H_
