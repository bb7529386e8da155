// CRC-32 fold with PCLMULQDQ. This translation unit is compiled with
// -mpclmul -msse4.1 (see CMakeLists.txt) and must only be entered after
// crc32.cc has confirmed the CPU supports both.
//
// The method and its constants are those of Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009), in the bit-reflected domain of 0xEDB88320. Four 128-bit lanes
// absorb 64 bytes per step; the lanes then fold into one, that one into 64
// bits, and a Barrett reduction leaves the 32-bit remainder. Every step is
// exact arithmetic over GF(2), so the result equals the table loop's.

#if defined(__x86_64__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace deepdirect::kernels::detail {
namespace {

// Each pair is one 128-bit operand: the low and high 64-bit halves.
// k1, k2: fold one lane forward by 512 bits (four lanes).
alignas(16) constexpr uint64_t kFold512[2] = {0x0154442bd4, 0x01c6e41596};
// k3, k4: fold one lane forward by 128 bits.
alignas(16) constexpr uint64_t kFold128[2] = {0x01751997d0, 0x00ccaa009e};
// k5: fold the remaining 96 bits into 64.
alignas(16) constexpr uint64_t kFold64[2] = {0x0163cd6124, 0};
// The polynomial P(x) and the Barrett constant μ = x^64 / P(x), reflected.
alignas(16) constexpr uint64_t kBarrett[2] = {0x01db710641, 0x01f7011641};

__m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__m128i Constant(const uint64_t (&k)[2]) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(k));
}

/// `lane` carried forward by the distance `k` encodes, plus `next`.
__m128i Fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

}  // namespace

uint32_t Crc32FoldPclmul(uint32_t state, const unsigned char* data,
                         size_t size) {
  __m128i x1 = _mm_xor_si128(Load(data),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load(data + 16);
  __m128i x3 = Load(data + 32);
  __m128i x4 = Load(data + 48);
  data += 64;
  size -= 64;

  __m128i k = Constant(kFold512);
  for (; size >= 64; data += 64, size -= 64) {
    x1 = Fold(x1, k, Load(data));
    x2 = Fold(x2, k, Load(data + 16));
    x3 = Fold(x3, k, Load(data + 32));
    x4 = Fold(x4, k, Load(data + 48));
  }

  k = Constant(kFold128);
  x1 = Fold(x1, k, x2);
  x1 = Fold(x1, k, x3);
  x1 = Fold(x1, k, x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = Fold(x1, k, Load(data));
  }

  // 128 bits to 64: the low half times k4, plus the high half.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k, 0x10));
  // 96 bits to 64: the low 32 times k5, plus the rest.
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction: q = (low32 · μ) mod x^32, then x1 ⊕ q · P.
  k = Constant(kBarrett);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

}  // namespace deepdirect::kernels::detail

#endif  // x86-64
