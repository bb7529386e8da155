// The aligned section container shared by the DDS1 servable model
// (core/servable_format.h) and the DDCK checkpoints (train/checkpoint.h):
//
//   Header (32 bytes)             magic, version, section count, total file
//                                 size, meta CRC, flags
//   SectionEntry × section_count  40-byte rows: NUL-padded name, absolute
//                                 payload offset, payload size, payload CRC32
//   payloads                      each kAlignment-aligned, in table order;
//                                 the gaps between them are zero bytes
//
// Every byte of a file is covered by a check: the meta CRC covers the header
// (with that field zeroed) and the table, each payload is covered by its
// row's CRC32, offsets must be exactly canonical, padding must read zero,
// and nothing may follow the last payload. With 64-byte alignment a
// page-aligned mapping makes every section pointer naturally aligned for its
// element type, so readers use the mapping in place.
//
// A format is a table (Format): magic, version, the flags word of its files
// (0 for DDS1 and DDCK), and its section names in payload order. Section 0
// is the format's meta struct; the expected size of every section follows
// from it and is the format's business (Reader::CheckSizes compares,
// CheckedMul computes).
//
// Every file is written whole by WriteFile. DDCK checkpoints are read into
// a buffer rather than mapped: Reader::Open checks any byte buffer.

#ifndef DEEPDIRECT_TRAIN_CONTAINER_H_
#define DEEPDIRECT_TRAIN_CONTAINER_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "kernels/crc32.h"
#include "util/status.h"

namespace deepdirect::train::container {

/// CRC32 (IEEE 802.3, reflected 0xEDB88320); see kernels/crc32.h.
using kernels::Crc32;
using kernels::Crc32Update;

/// Atomically replaces `path` with the concatenation of `parts`: writes them
/// in order to `path`.tmp in the same directory through one descriptor,
/// fsyncs it, renames it over `path`, and fsyncs the directory. A crash at
/// any point leaves either the old file or the new one; a failed write
/// removes the temp file and leaves `path` as it was.
util::Status AtomicWriteFile(const std::string& path,
                             std::span<const std::string_view> parts);

/// Payload alignment: covers every element type the formats carry and
/// matches the cache-line size the rest of the repo assumes.
inline constexpr uint64_t kAlignment = 64;

/// Fixed-width section names (NUL-padded).
inline constexpr size_t kSectionNameSize = 16;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t section_count;
  uint64_t file_size;  ///< must equal the on-disk size exactly
  uint32_t meta_crc;   ///< CRC32 of the header (this field zeroed) + table
  uint32_t flags;      ///< must equal Format::flags
};
static_assert(sizeof(Header) == 32);

struct SectionEntry {
  char name[kSectionNameSize];  ///< NUL-terminated and NUL-padded
  uint64_t offset;              ///< absolute and canonical (see MakeLayout)
  uint64_t size;
  uint32_t crc;       ///< CRC32 of the payload (of zero bytes when empty)
  uint32_t reserved;  ///< must be zero
};
static_assert(sizeof(SectionEntry) == 40);

/// What a reader requires of a file of one format.
struct Format {
  std::array<char, 4> magic;
  uint32_t version;
  uint32_t flags;
  std::span<const char* const> sections;  ///< names (< kSectionNameSize)
};

/// Rounds `n` up to the next kAlignment boundary.
inline constexpr uint64_t AlignUp(uint64_t n) {
  return (n + kAlignment - 1) & ~(kAlignment - 1);
}

/// Byte offset just past the section table.
inline constexpr uint64_t TableEnd(uint64_t section_count) {
  return sizeof(Header) + section_count * sizeof(SectionEntry);
}

/// The canonical placement of payloads of the given sizes: the first at
/// the first aligned offset after the table, each next one at the first
/// aligned offset after its predecessor.
struct Layout {
  std::vector<uint64_t> offsets;
  std::vector<uint64_t> sizes;
  uint64_t file_size = 0;
};
Layout MakeLayout(std::span<const uint64_t> sizes);

/// One payload of a file WriteFile assembles.
struct Payload {
  const void* data;
  uint64_t size;
};

/// Writes a file with one payload per format section: checksums each
/// payload where it lies, stamps the header and table into a small buffer,
/// and gathers them, the zero padding and the payloads into
/// AtomicWriteFile. No image of the file is built.
util::Status WriteFile(const Format& format, std::span<const Payload> payloads,
                       const std::string& path);

/// Stores `count` × `width` in `*product`, or returns InvalidArgument naming
/// the meta field `field` when the product wraps 64 bits. Every section size
/// a format derives from its meta goes through it.
util::Status CheckedMul(uint64_t count, uint64_t width, const char* field,
                        uint64_t* product);

/// A file whose container has passed every check. Its section spans view
/// the caller's bytes, which must outlive it, as must `format`.
class Reader {
 public:
  /// Checks the `file_size` bytes of a whole file at `data`, in order: room
  /// for the header and table, magic, version, flags, file size, section
  /// count, meta CRC; then per section its name and NUL padding, reserved
  /// word, canonical offset, bounds, the zero padding before it, and its
  /// CRC; then that no bytes trail the last section. Every defect is
  /// InvalidArgument "<magic> <path>: <defect>".
  static util::Result<Reader> Open(const Format& format,
                                   const std::string& path, const void* data,
                                   size_t file_size);

  /// Section `i` as an array of T, viewing the caller's bytes. Payloads are
  /// kAlignment-aligned, so the cast is aligned whenever the file's first
  /// byte is.
  template <typename T>
  std::span<const T> Array(size_t i) const {
    return {reinterpret_cast<const T*>(sections_[i].data()),
            sections_[i].size() / sizeof(T)};
  }

  /// InvalidArgument "<magic> <path>: <what>", for the format's own checks.
  util::Status Defect(const std::string& what) const;

  /// Copies section 0 into `*meta` after checking its size.
  template <typename Meta>
  util::Status ReadMeta(Meta* meta) const {
    static_assert(std::is_trivially_copyable_v<Meta>);
    if (sections_[0].size() != sizeof(Meta)) {
      return Defect("meta section has the wrong size");
    }
    std::memcpy(meta, sections_[0].data(), sizeof(Meta));
    return util::Status::OK();
  }

  /// Fails with `expected`'s own defect (a wrapping meta field), or when a
  /// section's size differs from the one the meta implies.
  util::Status CheckSizes(
      const util::Result<std::vector<uint64_t>>& expected) const;

  /// A CSR over offsets.size() − 1 nodes: offsets start at 0, end at
  /// dst.size() and never decrease, and every destination is a node.
  util::Status CheckCsr(std::span<const uint64_t> offsets,
                        std::span<const uint32_t> dst) const;

 private:
  Reader(const Format& format, const std::string& path)
      : format_(&format), path_(path) {}

  const Format* format_;
  std::string path_;
  std::vector<std::span<const unsigned char>> sections_;
};

}  // namespace deepdirect::train::container

#endif  // DEEPDIRECT_TRAIN_CONTAINER_H_
