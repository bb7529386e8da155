// Runtime kernel dispatch: every hot-loop primitive in kernels.h picks
// between the exact scalar path and the SIMD path through this switch.
//
// Resolution order:
//   1. `DD_KERNELS` environment variable (read once, on first use)
//   2. `SetMode()` — the `tdl_cli --kernels` flag and tests override the
//      environment at any time; the change applies to subsequent calls.
//   3. default `kAuto`: SIMD when the CPU supports a vector ISA the build
//      carries (AVX2 preferred, SSE2 fallback on x86-64, NEON on aarch64),
//      scalar otherwise. `kSimd` picks the same.
//
// The scalar path is the compatibility contract: it reproduces the
// historical trainer arithmetic bit-for-bit (see kernels.h). The SIMD
// path reorders accumulation and routes sigmoid through the lookup table,
// so it is tolerance-equal, not bit-equal — tests pin the bound.

#ifndef DEEPDIRECT_KERNELS_DISPATCH_H_
#define DEEPDIRECT_KERNELS_DISPATCH_H_

#include <string_view>

namespace deepdirect::kernels {

/// Requested dispatch mode.
enum class Mode {
  kAuto,    ///< SIMD when the host supports it (default)
  kScalar,  ///< force the exact scalar path
  kSimd,    ///< the same as kAuto: SIMD where the host has a vector
            ///< table, the exact scalar path elsewhere
};

/// Parses and installs a mode: "auto", "scalar", or "simd". Returns false
/// (and changes nothing) on any other string.
bool SetMode(std::string_view mode);

/// Installs a mode directly (tests; prefer SetMode for user input).
void SetMode(Mode mode);

/// The mode currently in force (env default until overridden).
Mode CurrentMode();

/// True when kernels should take the SIMD ops table: the mode is not
/// kScalar and the host has a vector table.
bool SimdEnabled();

/// Name of the ops table SIMD dispatch resolves to on this host:
/// "avx2", "sse2", "neon", or "scalar" when the host has none.
const char* SimdIsaName();

/// Name of the path kernels actually take right now: SimdIsaName() when
/// SimdEnabled(), else "scalar".
const char* ActivePathName();

}  // namespace deepdirect::kernels

#endif  // DEEPDIRECT_KERNELS_DISPATCH_H_
