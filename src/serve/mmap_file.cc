#include "serve/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace deepdirect::serve {

namespace {

// ENOMEM means the mapping (not the file) was refused — address space or
// overcommit pressure a caller may be able to relieve; everything else is
// an I/O-shaped failure.
util::Status MmapError(const std::string& path) {
  const int err = errno;
  const std::string detail =
      "cannot mmap " + path + ": " + std::strerror(err);
  if (err == ENOMEM) return util::Status::ResourceExhausted(detail);
  return util::Status::IOError(detail);
}

void AdviseRandom(void* data, size_t size) {
  // Purely a hint; a failure (e.g. an exotic filesystem) changes nothing
  // about correctness, so it is deliberately ignored.
  ::madvise(data, size, MADV_RANDOM);
}

}  // namespace

util::Result<MmapFile> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::IOError("cannot open " + path + ": " +
                                 std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return util::Status::IOError("cannot stat " + path + ": " + error);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MmapFile(nullptr, 0);
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The descriptor is only needed to establish the mapping.
  ::close(fd);
  if (data == MAP_FAILED) return MmapError(path);
  AdviseRandom(data, size);
  return MmapFile(data, size);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

util::Result<MmapRwFile> MmapRwFile::Create(const std::string& path,
                                            uint64_t size) {
  if (size == 0) {
    return util::Status::InvalidArgument("cannot map zero bytes: " + path);
  }
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return util::Status::IOError("cannot create " + path + ": " +
                                 std::strerror(errno));
  }
  // ftruncate leaves the file a sparse hole: zero-filled reads for free,
  // disk blocks allocated only where pages are actually written.
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return util::Status::IOError("cannot size " + path + ": " + error);
  }
  void* data = ::mmap(nullptr, static_cast<size_t>(size),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  // The descriptor is only needed to establish the mapping.
  ::close(fd);
  if (data == MAP_FAILED) return MmapError(path);
  AdviseRandom(data, static_cast<size_t>(size));
  return MmapRwFile(data, static_cast<size_t>(size));
}

MmapRwFile::~MmapRwFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapRwFile& MmapRwFile::operator=(MmapRwFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MmapRwFile::DropResident(uint64_t offset, uint64_t length) {
  AdviseOutward(offset, length, MADV_DONTNEED);
}

void MmapRwFile::Populate(uint64_t offset, uint64_t length) {
#ifdef MADV_POPULATE_WRITE
  // EINVAL from a kernel without the advice leaves the fault to the first
  // touch, which is all the advice saves.
  AdviseOutward(offset, length, MADV_POPULATE_WRITE);
#else
  (void)offset;
  (void)length;
#endif
}

void MmapRwFile::AdviseOutward(uint64_t offset, uint64_t length, int advice) {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  const uint64_t page = PageSize();
  const uint64_t end = length > size_ - offset ? size_ : offset + length;
  // Round outward. The mapping covers whole pages, so the page holding the
  // file's last byte is included too.
  const uint64_t begin_page = offset & ~(page - 1);
  const uint64_t end_page = (end + page - 1) & ~(page - 1);
  ::madvise(static_cast<char*>(data_) + begin_page, end_page - begin_page,
            advice);
}

uint64_t MmapRwFile::PageSize() {
  return static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace deepdirect::serve
