#include "train/container.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "obs/trace.h"

namespace deepdirect::train::container {
namespace {

namespace fs = std::filesystem;

util::Status FormatDefect(const Format& format, const std::string& path,
                          const std::string& what) {
  return util::Status::InvalidArgument(
      std::string(format.magic.data(), format.magic.size()) + " " + path +
      ": " + what);
}

/// CRC32 of the header with `meta_crc` zeroed, followed by the table.
uint32_t MetaCrc(std::span<const unsigned char> header_and_table) {
  Header header;
  std::memcpy(&header, header_and_table.data(), sizeof(header));
  header.meta_crc = 0;
  return Crc32Update(Crc32(&header, sizeof(header)),
                     header_and_table.data() + sizeof(header),
                     header_and_table.size() - sizeof(header));
}

/// The on-disk form of a section name: NUL-terminated and NUL-padded.
std::array<char, kSectionNameSize> PaddedName(const char* name) {
  std::array<char, kSectionNameSize> padded{};
  std::strncpy(padded.data(), name, kSectionNameSize - 1);
  return padded;
}

/// Writes the header with `flags`, the table with the payload CRCs
/// `crcs`, and the meta CRC over both into the TableEnd bytes at `head`.
void StampHead(const Format& format, const Layout& layout,
               std::span<const uint32_t> crcs, uint32_t flags,
               unsigned char* head) {
  const size_t count = format.sections.size();
  DD_CHECK_EQ(layout.sizes.size(), count);
  DD_CHECK_EQ(crcs.size(), count);
  Header header{};
  std::memcpy(header.magic, format.magic.data(), format.magic.size());
  header.version = format.version;
  header.section_count = count;
  header.file_size = layout.file_size;
  header.flags = flags;
  std::memcpy(head, &header, sizeof(header));
  for (size_t i = 0; i < count; ++i) {
    SectionEntry entry{};
    const auto name = PaddedName(format.sections[i]);
    std::memcpy(entry.name, name.data(), name.size());
    entry.offset = layout.offsets[i];
    entry.size = layout.sizes[i];
    entry.crc = crcs[i];
    std::memcpy(head + sizeof(Header) + i * sizeof(entry), &entry,
                sizeof(entry));
  }
  header.meta_crc = MetaCrc({head, TableEnd(count)});
  std::memcpy(head + offsetof(Header, meta_crc), &header.meta_crc,
              sizeof(header.meta_crc));
}

}  // namespace

util::Status AtomicWriteFile(const std::string& path,
                             std::span<const std::string_view> parts) {
  const fs::path target(path);
  const fs::path dir =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  const std::string tmp_path = path + ".tmp";
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return util::Status::IOError("cannot open " + tmp_path + " for writing");
  }
  const auto fail = [&](const std::string& what) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    return util::Status::IOError(what);
  };
  for (std::string_view part : parts) {
    while (!part.empty()) {
      const ssize_t written = ::write(fd, part.data(), part.size());
      if (written < 0 && errno == EINTR) continue;
      if (written <= 0) {
        ::close(fd);
        return fail("short write to " + tmp_path);
      }
      part.remove_prefix(static_cast<size_t>(written));
    }
  }
  obs::TraceSpan span("train.file_sync");
  // Flush file data to stable storage before the rename publishes it; a
  // rename that survives a crash must never point at unflushed data.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail("fsync failed for " + tmp_path);
  }
  if (::close(fd) != 0) return fail("close failed for " + tmp_path);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return fail("rename " + tmp_path + " -> " + path + " failed");
  }
  // Persist the directory entry too; best-effort (some filesystems refuse
  // O_RDONLY on directories), the data itself is already durable.
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return util::Status::OK();
}

Layout MakeLayout(std::span<const uint64_t> sizes) {
  Layout layout;
  layout.sizes.assign(sizes.begin(), sizes.end());
  uint64_t cursor = TableEnd(sizes.size());
  for (uint64_t size : sizes) {
    layout.offsets.push_back(AlignUp(cursor));
    cursor = layout.offsets.back() + size;
  }
  layout.file_size = cursor;
  return layout;
}

void Stamp(const Format& format, const Layout& layout, void* image,
           size_t size, bool live) {
  DD_CHECK_EQ(size, layout.file_size);
  auto* base = static_cast<unsigned char*>(image);
  std::vector<uint32_t> crcs(layout.sizes.size(), 0);
  if (!live) {
    for (size_t i = 0; i < crcs.size(); ++i) {
      crcs[i] = Crc32(base + layout.offsets[i], layout.sizes[i]);
    }
  }
  StampHead(format, layout, crcs, live ? 0 : format.flags, base);
}

util::Status WriteFile(const Format& format, std::span<const Payload> payloads,
                       const std::string& path) {
  DD_CHECK_EQ(payloads.size(), format.sections.size());
  std::vector<uint64_t> sizes;
  std::vector<uint32_t> crcs;
  for (const Payload& payload : payloads) {
    sizes.push_back(payload.size);
    crcs.push_back(Crc32(payload.data, payload.size));
  }
  const Layout layout = MakeLayout(sizes);
  std::string head(TableEnd(sizes.size()), '\0');
  StampHead(format, layout, crcs, format.flags,
            reinterpret_cast<unsigned char*>(head.data()));
  // Every gap is shorter than kAlignment, so one block of zeros pads them
  // all.
  static constexpr char kZeros[kAlignment] = {};
  std::vector<std::string_view> parts{head};
  uint64_t cursor = head.size();
  for (size_t i = 0; i < payloads.size(); ++i) {
    parts.emplace_back(kZeros, layout.offsets[i] - cursor);
    parts.emplace_back(static_cast<const char*>(payloads[i].data),
                       payloads[i].size);
    cursor = layout.offsets[i] + payloads[i].size;
  }
  return AtomicWriteFile(path, parts);
}

util::Status CheckedMul(uint64_t count, uint64_t width, const char* field,
                        uint64_t* product) {
  if (__builtin_mul_overflow(count, width, product)) {
    return util::Status::InvalidArgument(
        "meta field '" + std::string(field) + "' (" + std::to_string(count) +
        ") makes a section size wrap 64 bits");
  }
  return util::Status::OK();
}

util::Result<Reader> Reader::Open(const Format& format,
                                  const std::string& path, const void* data,
                                  size_t file_size) {
  obs::TraceSpan span("train.container.verify");
  const auto defect = [&](const std::string& what) {
    return FormatDefect(format, path, what);
  };
  const std::span<const unsigned char> file(
      static_cast<const unsigned char*>(data), file_size);
  const size_t count = format.sections.size();
  const uint64_t table_end = TableEnd(count);
  if (file_size < table_end) {
    return defect("file too small for the header and table (" +
                  std::to_string(file_size) + " bytes)");
  }
  Header header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (std::memcmp(header.magic, format.magic.data(), format.magic.size()) !=
      0) {
    return defect("bad magic");
  }
  if (header.version != format.version) {
    return defect("unsupported version " + std::to_string(header.version));
  }
  if (header.flags != format.flags) {
    return defect("header flags " + std::to_string(header.flags) +
                  ", expected " + std::to_string(format.flags) +
                  " (bit 0: sealed)");
  }
  if (header.file_size != file_size) {
    return defect("header says " + std::to_string(header.file_size) +
                  " bytes, file has " + std::to_string(file_size));
  }
  if (header.section_count != count) {
    return defect("expected " + std::to_string(count) + " sections, found " +
                  std::to_string(header.section_count));
  }
  if (MetaCrc(file.first(table_end)) != header.meta_crc) {
    return defect("header/table CRC mismatch");
  }

  Reader reader(format, path);
  uint64_t cursor = table_end;
  for (size_t i = 0; i < count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, file.data() + sizeof(Header) + i * sizeof(entry),
                sizeof(entry));
    const std::string name = format.sections[i];
    if (std::memcmp(entry.name, PaddedName(name.c_str()).data(),
                    kSectionNameSize) != 0) {
      return defect("section " + std::to_string(i) + " is not a NUL-padded '" +
                    name + "'");
    }
    if (entry.reserved != 0) {
      return defect("nonzero reserved word in section '" + name + "'");
    }
    if (entry.offset != AlignUp(cursor)) {
      return defect("section '" + name + "' is not at its canonical offset");
    }
    if (entry.size > file_size || entry.offset > file_size - entry.size) {
      return defect("section '" + name + "' extends past the end of the file");
    }
    // Alignment padding must read as zeros: corruption there would
    // otherwise be invisible to every CRC.
    const auto gap = file.subspan(cursor, entry.offset - cursor);
    const auto nonzero = std::find_if(gap.begin(), gap.end(),
                                      [](unsigned char b) { return b != 0; });
    if (nonzero != gap.end()) {
      return defect("nonzero padding byte at offset " +
                    std::to_string(cursor + (nonzero - gap.begin())));
    }
    const auto payload = file.subspan(entry.offset, entry.size);
    if (Crc32(payload.data(), payload.size()) != entry.crc) {
      return defect("CRC mismatch in section '" + name + "'");
    }
    reader.sections_.push_back(payload);
    cursor = entry.offset + entry.size;
  }
  if (cursor != file_size) {
    return defect("trailing bytes after the last section");
  }
  return reader;
}

util::Status Reader::Defect(const std::string& what) const {
  return FormatDefect(*format_, path_, what);
}

util::Status Reader::CheckSizes(
    const util::Result<std::vector<uint64_t>>& expected) const {
  if (!expected.ok()) return Defect(expected.status().message());
  DD_CHECK_EQ(expected.value().size(), sections_.size());
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].size() != expected.value()[i]) {
      return Defect("section '" + std::string(format_->sections[i]) + "' is " +
                    std::to_string(sections_[i].size()) +
                    " bytes, the meta implies " +
                    std::to_string(expected.value()[i]));
    }
  }
  return util::Status::OK();
}

util::Status Reader::CheckCsr(std::span<const uint64_t> offsets,
                              std::span<const uint32_t> dst) const {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != dst.size()) {
    return Defect("CSR offsets do not span the arc count");
  }
  const auto drop = std::adjacent_find(offsets.begin(), offsets.end(),
                                       std::greater<uint64_t>());
  if (drop != offsets.end()) {
    return Defect("CSR offsets decrease at node " +
                  std::to_string(drop - offsets.begin()));
  }
  const uint64_t num_nodes = offsets.size() - 1;
  const auto stray = std::find_if(dst.begin(), dst.end(), [&](uint32_t v) {
    return v >= num_nodes;
  });
  if (stray != dst.end()) {
    return Defect("CSR destination out of range at arc " +
                  std::to_string(stray - dst.begin()));
  }
  return util::Status::OK();
}

}  // namespace deepdirect::train::container
