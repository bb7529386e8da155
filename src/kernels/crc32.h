// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the checksum of
// every container this repo writes and reads (DDCK, DDS1, DDSH).
//
// Two paths return the same value for every input:
//   * the portable table loop, one byte at a time;
//   * on x86-64 CPUs with PCLMULQDQ and SSE4.1, a carry-less-multiply fold
//     (crc32_pclmul.cc) over the 16-byte-multiple prefix of any input of 64
//     bytes or more; the table loop finishes the tail.
// The CPU alone picks the path, probed once per process. Neither
// `DD_KERNELS` nor `SetMode` applies: the fold is exact, so there is
// nothing to trade.

#ifndef DEEPDIRECT_KERNELS_CRC32_H_
#define DEEPDIRECT_KERNELS_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace deepdirect::kernels {

/// CRC-32 of `size` bytes at `data`.
uint32_t Crc32(const void* data, size_t size);

/// Incremental CRC-32: feed successive chunks starting from 0, so that
/// Crc32Update(Crc32(a), b) == Crc32(a ‖ b).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// Crc32Update through the table loop alone, on every host. Tests compare
/// the fold against it.
uint32_t Crc32UpdateBytewise(uint32_t crc, const void* data, size_t size);

/// True when Crc32Update folds with PCLMULQDQ on this host.
bool Crc32HasFold();

}  // namespace deepdirect::kernels

#endif  // DEEPDIRECT_KERNELS_CRC32_H_
