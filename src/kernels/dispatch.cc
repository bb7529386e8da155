#include "kernels/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "kernels/simd_ops.h"

namespace deepdirect::kernels {

namespace {

bool ParseMode(std::string_view s, Mode* out) {
  if (s == "auto") {
    *out = Mode::kAuto;
  } else if (s == "scalar") {
    *out = Mode::kScalar;
  } else if (s == "simd") {
    *out = Mode::kSimd;
  } else {
    return false;
  }
  return true;
}

Mode EnvDefault() {
  const char* env = std::getenv("DD_KERNELS");
  Mode mode = Mode::kAuto;
  if (env != nullptr) ParseMode(env, &mode);  // unknown values fall to auto
  return mode;
}

std::atomic<Mode>& ModeVar() {
  static std::atomic<Mode> mode{EnvDefault()};
  return mode;
}

}  // namespace

namespace detail {

const Ops* ActiveOps() {
  static const Ops* const ops = []() -> const Ops* {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return &Avx2Ops();
    }
    if (__builtin_cpu_supports("sse2")) return &Sse2Ops();
    return nullptr;
#elif defined(__aarch64__)
    return &NeonOps();
#else
    return nullptr;
#endif
  }();
  return ops;
}

}  // namespace detail

bool SetMode(std::string_view mode) {
  Mode parsed;
  if (!ParseMode(mode, &parsed)) return false;
  SetMode(parsed);
  return true;
}

void SetMode(Mode mode) {
  ModeVar().store(mode, std::memory_order_relaxed);
}

Mode CurrentMode() { return ModeVar().load(std::memory_order_relaxed); }

bool SimdEnabled() {
  return CurrentMode() != Mode::kScalar && detail::ActiveOps() != nullptr;
}

const char* SimdIsaName() {
  const detail::Ops* ops = detail::ActiveOps();
  return ops != nullptr ? ops->isa : "scalar";
}

const char* ActivePathName() {
  return SimdEnabled() ? SimdIsaName() : "scalar";
}

}  // namespace deepdirect::kernels
