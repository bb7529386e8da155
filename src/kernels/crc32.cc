#include "kernels/crc32.h"

#include <array>

namespace deepdirect::kernels {

namespace detail {

/// The PCLMULQDQ fold (crc32_pclmul.cc) over `size` bytes, a multiple of 16
/// and at least 64, continuing the pre-inverted CRC `state`. Enter only when
/// Crc32HasFold().
uint32_t Crc32FoldPclmul(uint32_t state, const unsigned char* data,
                         size_t size);

}  // namespace detail

namespace {

/// The table loop over the pre-inverted CRC `state`.
uint32_t TableLoop(uint32_t state, const unsigned char* bytes, size_t size) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  for (size_t i = 0; i < size; ++i) {
    state = table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

bool Crc32HasFold() {
#if defined(__x86_64__)
  static const bool has_fold =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return has_fold;
#else
  return false;
#endif
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t state = crc ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (size >= 64 && Crc32HasFold()) {
    const size_t prefix = size & ~size_t{15};
    state = detail::Crc32FoldPclmul(state, bytes, prefix);
    bytes += prefix;
    size -= prefix;
  }
#endif
  return TableLoop(state, bytes, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32UpdateBytewise(uint32_t crc, const void* data, size_t size) {
  return TableLoop(crc ^ 0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                   size) ^
         0xFFFFFFFFu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace deepdirect::kernels
