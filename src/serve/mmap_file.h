// Memory-mapped files: the zero-copy substrate of the serving layer and
// the out-of-core shard store.
//
//   * MmapFile    — read-only PROT_READ/MAP_PRIVATE mapping of a whole
//                   file; pages fault in on first touch and the kernel
//                   shares clean pages between processes mapping the same
//                   model file.
//   * MmapRwFile  — read-write PROT_READ|PROT_WRITE/MAP_SHARED mapping of
//                   a new file, the shard store's row file: stores land in
//                   the page cache, DropResident() releases a range's
//                   resident pages without losing data — the primitive
//                   behind the --shard-ram-mb budget's page evictions —
//                   and Populate() faults a range in writable. Nothing is
//                   synced: the row file is working memory that no later
//                   run reads.
//
// Both classes map with MADV_RANDOM: their readers make point queries and
// row touches, which must not trigger readahead thrash. mmap failing with
// ENOMEM returns a typed ResourceExhausted so callers can degrade (drop a
// cache, shrink a budget) instead of treating it like an unreadable file.

#ifndef DEEPDIRECT_SERVE_MMAP_FILE_H_
#define DEEPDIRECT_SERVE_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace deepdirect::serve {

/// An immutable byte view backed by mmap. Move-only; unmaps on
/// destruction. A default-constructed instance views zero bytes.
class MmapFile {
 public:
  /// Maps `path` read-only. Unreadable or unstat-able files yield IOError;
  /// mmap failing with ENOMEM yields ResourceExhausted; an empty file maps
  /// to a valid zero-length view.
  static util::Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const void* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view bytes() const {
    return {static_cast<const char*>(data_), size_};
  }

 private:
  MmapFile(void* data, size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  size_t size_ = 0;
};

/// A mutable byte range backed by a MAP_SHARED read-write mapping. Stores
/// go to the page cache and survive DropResident(). Move-only; unmaps on
/// destruction.
class MmapRwFile {
 public:
  /// Creates (or truncates) `path` at exactly `size` bytes and maps it
  /// read-write. The file starts as a sparse hole — every byte reads zero
  /// and pages are only allocated when written. `size` must be > 0.
  static util::Result<MmapRwFile> Create(const std::string& path,
                                         uint64_t size);

  MmapRwFile() = default;
  ~MmapRwFile();
  MmapRwFile(MmapRwFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MmapRwFile& operator=(MmapRwFile&& other) noexcept;
  MmapRwFile(const MmapRwFile&) = delete;
  MmapRwFile& operator=(const MmapRwFile&) = delete;

  void* data() { return data_; }
  const void* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

  /// Tells the kernel to release the resident pages of [offset,
  /// offset+length) (madvise MADV_DONTNEED on a MAP_SHARED mapping drops
  /// the PTEs; data stays in the page cache / on disk and faults back in
  /// on the next touch). The range is rounded *outward* to page
  /// boundaries: every page holding one of its bytes is released,
  /// including the partial last page of the file, so one byte names one
  /// page. Bytes that share a page with the range lose nothing; they only
  /// fault back in.
  void DropResident(uint64_t offset, uint64_t length);

  /// Faults the pages of [offset, offset+length) in writable (madvise
  /// MADV_POPULATE_WRITE), rounded outward like DropResident. A write
  /// fault maps exactly those pages, where a read fault would also map
  /// neighbours that sit in the page cache. Best effort: a kernel older
  /// than 5.14 rejects the advice, and the pages then fault in on first
  /// touch.
  void Populate(uint64_t offset, uint64_t length);

  /// The system page size, sysconf(_SC_PAGESIZE): the granularity of
  /// DropResident and Populate.
  static uint64_t PageSize();

 private:
  MmapRwFile(void* data, size_t size) : data_(data), size_(size) {}

  /// madvise(`advice`) over the pages holding [offset, offset+length).
  void AdviseOutward(uint64_t offset, uint64_t length, int advice);

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace deepdirect::serve

#endif  // DEEPDIRECT_SERVE_MMAP_FILE_H_
