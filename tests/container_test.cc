// Tests for the aligned section container (train/container.h) that the
// DDS1 servable model and the DDSH shard store share: a round trip with an
// empty section, the live-then-finished stamp that DDSH sealing relies on,
// every-length truncation and every-byte corruption sweeps, a seeded
// structure-aware mutation loop that re-stamps CRCs so only the structural
// checks can reject, the gathering writer against a stamped image and at a
// failed write, and the CSR, size and checked-multiply helpers. The
// formats' own meta and CSR checks are swept through their public Open in
// serve_test and sharded_store_test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "file_size_limit.h"
#include "train/container.h"
#include "util/random.h"

namespace deepdirect::train::container {
namespace {

// A middle section that is empty, one followed by padding, one whose size
// is a multiple of kAlignment (no padding after it), and a ragged last one.
constexpr const char* kNames[] = {"meta", "empty", "rows", "tail"};
constexpr uint64_t kSizes[] = {40, 0, 128, 21};
constexpr size_t kCount = sizeof(kNames) / sizeof(kNames[0]);

constexpr Format kOpenFormat{{'T', 'E', 'S', 'T'}, 3, 0, kNames};
constexpr Format kSealedFormat{{'T', 'E', 'S', 'T'}, 3, kFlagSealed, kNames};
constexpr const Format* kFormats[] = {&kOpenFormat, &kSealedFormat};

util::Result<Reader> Open(const Format& format, const std::string& bytes) {
  return Reader::Open(format, "mem", bytes.data(), bytes.size());
}

/// Payload byte b of section s. Nonzero, so a payload byte that a mutation
/// exposes as padding reads nonzero, except for the first bytes of "meta":
/// moved forward over those, the payload leaves a zero gap behind, which
/// only the canonical-offset check rejects.
char PayloadByte(size_t s, size_t b) {
  if (s == 0 && b < 8) return 0;
  return static_cast<char>(1 + (s * 37 + b * 11) % 255);
}

/// The synthetic container, payloads in place, stamped live or finished.
std::string Build(const Format& format, bool live) {
  const Layout layout = MakeLayout(kSizes);
  std::string bytes(layout.file_size, '\0');
  for (size_t s = 0; s < kCount; ++s) {
    for (size_t b = 0; b < kSizes[s]; ++b) {
      bytes[layout.offsets[s] + b] = PayloadByte(s, b);
    }
  }
  Stamp(format, layout, bytes.data(), bytes.size(), live);
  return bytes;
}

util::Status OpenStatus(const Format& format, const std::string& bytes) {
  return Open(format, bytes).status();
}

TEST(ContainerTest, RoundTripsWithAnEmptySection) {
  const Layout layout = MakeLayout(kSizes);
  for (const Format* format : kFormats) {
    const std::string bytes = Build(*format, /*live=*/false);
    ASSERT_EQ(bytes.size(), layout.file_size);
    auto read = Open(*format, bytes);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    for (size_t s = 0; s < kCount; ++s) {
      const auto section = read.value().Array<unsigned char>(s);
      EXPECT_EQ(section.data(),
                reinterpret_cast<const unsigned char*>(bytes.data()) +
                    layout.offsets[s]);
      EXPECT_EQ(layout.offsets[s] % kAlignment, 0u) << kNames[s];
      ASSERT_EQ(section.size(), kSizes[s]) << kNames[s];
      for (size_t b = 0; b < section.size(); ++b) {
        ASSERT_EQ(static_cast<char>(section[b]), PayloadByte(s, b));
      }
    }
    Header header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    EXPECT_EQ(header.flags, format->flags);
    EXPECT_EQ(header.file_size, bytes.size());
  }
}

TEST(ContainerTest, LiveStampNeverOpensAndRestampsToTheFinishedBytes) {
  for (const Format* format : kFormats) {
    std::string live = Build(*format, /*live=*/true);
    EXPECT_EQ(OpenStatus(*format, live).code(),
              util::StatusCode::kInvalidArgument);
    // Sealing a DDSH shard restamps its live image in place.
    Stamp(*format, MakeLayout(kSizes), live.data(), live.size(),
          /*live=*/false);
    EXPECT_EQ(live, Build(*format, /*live=*/false));
  }
}

TEST(ContainerTest, TruncationSweepEveryLengthNeverOpens) {
  for (const Format* format : kFormats) {
    const std::string bytes = Build(*format, /*live=*/false);
    for (size_t len = 0; len < bytes.size(); ++len) {
      const auto status = OpenStatus(*format, bytes.substr(0, len));
      ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << "prefix of " << len << " bytes: " << status.ToString();
    }
  }
}

TEST(ContainerTest, CorruptionSweepEveryByteNeverOpens) {
  for (const Format* format : kFormats) {
    const std::string bytes = Build(*format, /*live=*/false);
    for (const unsigned char mask : {0x01, 0x5A, 0x80, 0xFF}) {
      for (size_t k = 0; k < bytes.size(); ++k) {
        std::string corrupted = bytes;
        corrupted[k] = static_cast<char>(corrupted[k] ^ mask);
        const auto status = OpenStatus(*format, corrupted);
        ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument)
            << "byte " << k << " ^ " << int{mask} << ": " << status.ToString();
      }
    }
  }
}

// --- Structure-aware mutations -------------------------------------------

template <typename T>
T Get(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

template <typename T>
void Put(std::string& bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

size_t EntryAt(size_t s) { return sizeof(Header) + s * sizeof(SectionEntry); }

/// Re-stamps section s's payload CRC over whatever range its row now names.
void RestampPayloadCrc(std::string& bytes, size_t s) {
  const size_t row = EntryAt(s);
  const auto offset =
      Get<uint64_t>(bytes, row + offsetof(SectionEntry, offset));
  const auto size = Get<uint64_t>(bytes, row + offsetof(SectionEntry, size));
  if (size > bytes.size() || offset > bytes.size() - size) return;
  Put(bytes, row + offsetof(SectionEntry, crc),
      Crc32(bytes.data() + offset, size));
}

void RestampMetaCrc(std::string& bytes) {
  Put<uint32_t>(bytes, offsetof(Header, meta_crc), 0);
  Put(bytes, offsetof(Header, meta_crc),
      Crc32(bytes.data(), TableEnd(kCount)));
}

/// `value` with a random nonzero bit pattern XORed in.
template <typename T>
T Flip(T value, util::Rng& rng) {
  T delta = static_cast<T>(rng.NextIndex(2) == 0 ? 1 + rng.NextIndex(255)
                                                  : rng.Next());
  if (delta == 0) delta = 1;
  return static_cast<T>(value ^ delta);
}

enum Mutation {
  kMagic,
  kVersion,
  kSectionCount,
  kFileSize,
  kFlags,
  kNameByte,
  kReserved,
  kOffset,
  kSize,
  kPadding,
  kNumMutations,
};

TEST(ContainerTest, StructureAwareMutationsNeverOpen) {
  // One header field, table field or padding byte changes per mutation, and
  // every CRC is re-stamped to match, so a structural check (not a CRC) has
  // to reject the file. A section that grows into the zero padding after it
  // stays a well-formed container (only its format's size check can tell),
  // so size mutations shrink a section or grow it past its padding.
  const Layout layout = MakeLayout(kSizes);
  std::vector<size_t> padding;
  uint64_t cursor = TableEnd(kCount);
  for (size_t s = 0; s < kCount; ++s) {
    for (uint64_t b = cursor; b < layout.offsets[s]; ++b) padding.push_back(b);
    cursor = layout.offsets[s] + kSizes[s];
  }
  ASSERT_FALSE(padding.empty());

  util::Rng rng(20260417);
  constexpr int kMutationsPerFormat = 10000;
  for (const Format* format : kFormats) {
    const std::string pristine = Build(*format, /*live=*/false);
    int hits[kNumMutations] = {};
    for (int m = 0; m < kMutationsPerFormat; ++m) {
      std::string bytes = pristine;
      const auto kind = static_cast<Mutation>(rng.NextIndex(kNumMutations));
      const size_t s = rng.NextIndex(kCount);
      const size_t row = EntryAt(s);
      switch (kind) {
        case kMagic: {
          const size_t b = rng.NextIndex(4);
          bytes[b] = static_cast<char>(Flip<unsigned char>(bytes[b], rng));
          break;
        }
        case kVersion:
          Put(bytes, offsetof(Header, version),
              Flip(Get<uint32_t>(bytes, offsetof(Header, version)), rng));
          break;
        case kSectionCount:
          Put(bytes, offsetof(Header, section_count),
              Flip(Get<uint64_t>(bytes, offsetof(Header, section_count)), rng));
          break;
        case kFileSize:
          Put(bytes, offsetof(Header, file_size),
              Flip(Get<uint64_t>(bytes, offsetof(Header, file_size)), rng));
          break;
        case kFlags:
          Put(bytes, offsetof(Header, flags),
              Flip(Get<uint32_t>(bytes, offsetof(Header, flags)), rng));
          break;
        case kNameByte: {
          const size_t b = row + rng.NextIndex(kSectionNameSize);
          bytes[b] = static_cast<char>(Flip<unsigned char>(bytes[b], rng));
          break;
        }
        case kReserved:
          Put(bytes, row + offsetof(SectionEntry, reserved),
              Flip(Get<uint32_t>(bytes, row + offsetof(SectionEntry, reserved)),
                   rng));
          break;
        case kOffset:
          Put(bytes, row + offsetof(SectionEntry, offset),
              Flip(layout.offsets[s], rng));
          RestampPayloadCrc(bytes, s);
          break;
        case kSize: {
          const uint64_t room = (s + 1 < kCount ? layout.offsets[s + 1]
                                                : layout.file_size) -
                                layout.offsets[s];
          uint64_t size = room + 1 + rng.NextIndex(256);
          if (kSizes[s] > 0 && rng.NextIndex(2) == 0) {
            size = rng.NextIndex(kSizes[s]);
          } else if (rng.NextIndex(4) == 0) {
            size = rng.Next() | (uint64_t{1} << 63);
          }
          Put(bytes, row + offsetof(SectionEntry, size), size);
          RestampPayloadCrc(bytes, s);
          break;
        }
        case kPadding: {
          const size_t b = padding[rng.NextIndex(padding.size())];
          bytes[b] = static_cast<char>(Flip<unsigned char>(0, rng));
          break;
        }
        case kNumMutations:
          break;
      }
      ASSERT_NE(bytes, pristine) << "mutation " << m << " changed nothing";
      RestampMetaCrc(bytes);
      ++hits[kind];
      const auto status = OpenStatus(*format, bytes);
      ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << "mutation " << m << " (kind " << kind << ", section " << s
          << ") opened";
      ASSERT_EQ(status.message().find("CRC"), std::string::npos)
          << "mutation " << m << " (kind " << kind
          << ") was caught by a CRC: " << status.ToString();
    }
    for (int kind = 0; kind < kNumMutations; ++kind) {
      EXPECT_GT(hits[kind], 0) << "mutation kind " << kind << " never ran";
    }
  }
}

// --- The gathering writer ------------------------------------------------

namespace fs = std::filesystem;

/// A per-process, per-test path, so `ctest -j` runs cannot collide.
std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() /
          ("container_test_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name))
      .string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One payload per size, section s filled with PayloadByte(s + salt, b).
std::vector<std::string> PayloadBytes(std::span<const uint64_t> sizes,
                                      size_t salt) {
  std::vector<std::string> payloads;
  for (size_t s = 0; s < sizes.size(); ++s) {
    std::string bytes(sizes[s], '\0');
    for (size_t b = 0; b < bytes.size(); ++b) {
      bytes[b] = PayloadByte(s + salt, b);
    }
    payloads.push_back(std::move(bytes));
  }
  return payloads;
}

std::vector<Payload> Views(const std::vector<std::string>& payloads) {
  std::vector<Payload> views;
  for (const std::string& bytes : payloads) {
    views.push_back({bytes.data(), bytes.size()});
  }
  return views;
}

TEST(ContainerTest, WriteFileEqualsTheStampedImage) {
  // Section s holds s bytes: section 0 is empty, and the gaps after
  // sections 0..63 take every padding length from 0 to 63.
  constexpr size_t kGatherCount = 65;
  std::vector<std::string> names;
  std::vector<uint64_t> sizes;
  for (size_t s = 0; s < kGatherCount; ++s) {
    names.push_back("s" + std::to_string(s));
    sizes.push_back(s);
  }
  std::vector<const char*> name_ptrs;
  for (const std::string& name : names) name_ptrs.push_back(name.c_str());
  const Format format{{'G', 'A', 'T', 'H'}, 1, kFlagSealed, name_ptrs};
  const std::vector<std::string> payloads = PayloadBytes(sizes, 0);

  const std::string path = TempPath("gathered");
  ASSERT_TRUE(WriteFile(format, Views(payloads), path).ok());
  const std::string written = ReadFile(path);
  fs::remove(path);

  const Layout layout = MakeLayout(sizes);
  std::set<uint64_t> gaps;
  uint64_t cursor = TableEnd(kGatherCount);
  std::string image(layout.file_size, '\0');
  for (size_t s = 0; s < kGatherCount; ++s) {
    gaps.insert(layout.offsets[s] - cursor);
    std::memcpy(image.data() + layout.offsets[s], payloads[s].data(),
                payloads[s].size());
    cursor = layout.offsets[s] + sizes[s];
  }
  ASSERT_EQ(gaps.size(), kAlignment);
  Stamp(format, layout, image.data(), image.size(), /*live=*/false);
  EXPECT_EQ(written, image);
  EXPECT_TRUE(Reader::Open(format, path, written.data(), written.size()).ok());
}

// A write that fails part-way (at the file-size limit, after a short write)
// returns IOError, removes its temp file and leaves the previous file byte
// for byte.
TEST(ContainerTest, FailedWriteFileKeepsTheTargetAndLeavesNoTempFile) {
  const std::string path = TempPath("target");
  const std::vector<std::string> first = PayloadBytes(kSizes, 0);
  ASSERT_TRUE(WriteFile(kSealedFormat, Views(first), path).ok());
  const std::string before = ReadFile(path);
  const std::vector<std::string> second = PayloadBytes(kSizes, 1);
  util::Status status;
  {
    const testing::FileSizeLimit limit(before.size() / 2);
    ASSERT_TRUE(limit.active());
    status = WriteFile(kSealedFormat, Views(second), path);
  }
  EXPECT_EQ(status.code(), util::StatusCode::kIOError) << status.ToString();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(ReadFile(path), before);
  fs::remove(path);
}

// --- Helpers the formats build on ----------------------------------------

TEST(ContainerTest, CheckCsrRejectsEveryMalformedShape) {
  const std::string bytes = Build(kSealedFormat, /*live=*/false);
  auto read = Open(kSealedFormat, bytes);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Reader& reader = read.value();
  using Offsets = std::vector<uint64_t>;
  using Dst = std::vector<uint32_t>;
  EXPECT_TRUE(reader.CheckCsr(Offsets{0, 2, 2, 3}, Dst{1, 2, 0}).ok());
  EXPECT_TRUE(reader.CheckCsr(Offsets{0}, Dst{}).ok());
  const std::pair<Offsets, Dst> bad[] = {
      {Offsets{}, Dst{}},                // no offsets at all
      {Offsets{1, 2, 3}, Dst{0, 1, 0}},  // does not start at 0
      {Offsets{0, 1, 2}, Dst{0, 1, 0}},  // does not end at the arc count
      {Offsets{0, 2, 1, 3}, Dst{1, 2, 0}},  // decreases
      {Offsets{0, 2, 2, 3}, Dst{1, 3, 0}},  // destination past the nodes
  };
  for (const auto& [offsets, dst] : bad) {
    const auto status = reader.CheckCsr(offsets, dst);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message().rfind("TEST mem: CSR", 0), 0u)
        << status.ToString();
  }
}

TEST(ContainerTest, CheckedMulNamesTheWrappingField) {
  uint64_t product = 0;
  EXPECT_TRUE(CheckedMul(3, 8, "rows", &product).ok());
  EXPECT_EQ(product, 24u);
  EXPECT_TRUE(CheckedMul(0, ~uint64_t{0}, "rows", &product).ok());
  EXPECT_EQ(product, 0u);
  const auto status = CheckedMul((uint64_t{1} << 61) + 1, sizeof(double),
                                 "dimensions", &product);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'dimensions'"), std::string::npos)
      << status.ToString();
}

TEST(ContainerTest, CheckSizesComparesEverySection) {
  const std::string bytes = Build(kOpenFormat, /*live=*/false);
  auto read = Open(kOpenFormat, bytes);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Reader& reader = read.value();
  const std::vector<uint64_t> sizes(std::begin(kSizes), std::end(kSizes));
  EXPECT_TRUE(reader.CheckSizes(sizes).ok());
  std::vector<uint64_t> off_by_one = sizes;
  ++off_by_one[1];
  EXPECT_EQ(reader.CheckSizes(off_by_one).code(),
            util::StatusCode::kInvalidArgument);
  const auto wrapped = reader.CheckSizes(
      util::Status::InvalidArgument("meta field 'rows' wraps"));
  EXPECT_EQ(wrapped.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(wrapped.message(), "TEST mem: meta field 'rows' wraps");
}

}  // namespace
}  // namespace deepdirect::train::container
