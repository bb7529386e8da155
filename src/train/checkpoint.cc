#include "train/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace deepdirect::train {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kFormatVersion = 1;
constexpr std::array<char, 4> kCheckpointMagic{'D', 'D', 'C', 'K'};
constexpr std::array<char, 4> kFooterMagic{'D', 'D', 'E', 'N'};
constexpr size_t kMaxSectionName = 255;

void AppendBytes(std::string& out, const void* data, size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendPod(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendBytes(out, &value, sizeof(T));
}

/// Bounds-checked cursor over an in-memory container image. Every read
/// either succeeds or records a truncation error naming the offset.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, const std::string& origin)
      : bytes_(bytes), origin_(origin) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return bytes_.size() - offset_; }

  util::Status ReadRaw(void* out, size_t size, std::string_view what) {
    if (remaining() < size) {
      std::ostringstream msg;
      msg << origin_ << ": truncated reading " << what << " at offset "
          << offset_ << " (need " << size << " bytes, have " << remaining()
          << ")";
      return util::Status::InvalidArgument(msg.str());
    }
    std::memcpy(out, bytes_.data() + offset_, size);
    offset_ += size;
    return util::Status::OK();
  }

  template <typename T>
  util::Status Read(T* out, std::string_view what) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(out, sizeof(T), what);
  }

  util::Status Skip(size_t size, std::string_view what) {
    if (remaining() < size) {
      std::ostringstream msg;
      msg << origin_ << ": truncated reading " << what << " at offset "
          << offset_ << " (need " << size << " bytes, have " << remaining()
          << ")";
      return util::Status::InvalidArgument(msg.str());
    }
    offset_ += size;
    return util::Status::OK();
  }

 private:
  std::string_view bytes_;
  const std::string& origin_;
  size_t offset_ = 0;
};

/// Engine-owned metadata section; must match the live RunShape on resume.
struct CheckpointMeta {
  uint64_t epochs_done = 0;
  uint64_t next_step = 0;
  uint64_t total_steps = 0;
  uint64_t steps_per_epoch = 0;
  uint64_t shard_seed = 0;
  double lr_initial = 0.0;
  double lr_min_fraction = 0.0;
  uint32_t lr_decay = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(CheckpointMeta) == 64);

/// Reads the whole file open at `fd` into `*out` with one sized read loop.
/// Anything but a regular file, or one shorter than fstat reported, is an
/// IOError.
util::Status ReadRegularFile(int fd, const std::string& path,
                             std::string* out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return util::Status::IOError("cannot stat " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    return util::Status::IOError(path + " is not a regular file");
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t got = ::read(fd, out->data() + done, out->size() - done);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return util::Status::IOError("read error on " + path);
    if (got == 0) {
      return util::Status::IOError(path + " ended after " +
                                   std::to_string(done) + " of " +
                                   std::to_string(out->size()) + " bytes");
    }
    done += static_cast<size_t>(got);
  }
  return util::Status::OK();
}

void WarnSkip(const std::string& path, const util::Status& status) {
  std::cerr << "[checkpoint] skipping " << path << ": " << status.ToString()
            << "\n";
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

void CheckpointWriter::AddSection(std::string_view name, const void* data,
                                  size_t size) {
  DD_CHECK(!name.empty());
  DD_CHECK_LE(name.size(), kMaxSectionName);
  for (const Section& section : sections_) {
    DD_CHECK_MSG(section.name != name,
                 "duplicate checkpoint section: " << name);
  }
  Section section;
  section.name = std::string(name);
  section.view = std::string_view(static_cast<const char*>(data), size);
  sections_.push_back(std::move(section));
}

std::vector<std::string_view> CheckpointWriter::Parts(
    std::string& frame) const {
  frame.clear();
  AppendBytes(frame, kCheckpointMagic.data(), kCheckpointMagic.size());
  AppendPod(frame, kFormatVersion);
  AppendPod(frame, static_cast<uint64_t>(sections_.size()));
  AppendPod(frame, Crc32(frame.data(), frame.size()));
  // Each payload goes where its section's prefix ends in the frame.
  std::vector<size_t> cuts;
  for (const Section& section : sections_) {
    const size_t section_start = frame.size();
    const std::string_view payload = section.payload();
    AppendPod(frame, static_cast<uint32_t>(section.name.size()));
    AppendBytes(frame, section.name.data(), section.name.size());
    AppendPod(frame, static_cast<uint64_t>(payload.size()));
    cuts.push_back(frame.size());
    AppendPod(frame,
              Crc32Update(Crc32(frame.data() + section_start,
                                frame.size() - section_start),
                          payload.data(), payload.size()));
  }
  AppendBytes(frame, kFooterMagic.data(), kFooterMagic.size());

  const std::string_view all(frame);
  std::vector<std::string_view> parts;
  size_t from = 0;
  for (size_t i = 0; i < sections_.size(); ++i) {
    parts.push_back(all.substr(from, cuts[i] - from));
    parts.push_back(sections_[i].payload());
    from = cuts[i];
  }
  parts.push_back(all.substr(from));
  return parts;
}

std::string CheckpointWriter::Serialize() const {
  std::string frame;
  const std::vector<std::string_view> parts = Parts(frame);
  size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

util::Status CheckpointWriter::WriteAtomic(const std::string& path) const {
  std::string frame;
  return AtomicWriteFile(path, Parts(frame));
}

util::Result<CheckpointData> CheckpointData::Parse(
    std::string bytes, const std::string& origin) {
  CheckpointData data(std::move(bytes), origin);
  ByteReader reader(data.bytes_, data.origin_);

  std::array<char, 4> file_magic{};
  DD_RETURN_NOT_OK(reader.ReadRaw(file_magic.data(), 4, "magic"));
  if (file_magic != kCheckpointMagic) {
    return util::Status::InvalidArgument(origin +
                                         ": bad magic (not a DDCK file)");
  }
  uint32_t version = 0;
  DD_RETURN_NOT_OK(reader.Read(&version, "version"));
  if (version != kFormatVersion) {
    std::ostringstream msg;
    msg << origin << ": unsupported format version " << version
        << " (expected " << kFormatVersion << ")";
    return util::Status::InvalidArgument(msg.str());
  }
  uint64_t section_count = 0;
  DD_RETURN_NOT_OK(reader.Read(&section_count, "section count"));
  uint32_t header_crc = 0;
  const size_t header_size = reader.offset();
  DD_RETURN_NOT_OK(reader.Read(&header_crc, "header CRC"));
  if (Crc32(data.bytes_.data(), header_size) != header_crc) {
    return util::Status::InvalidArgument(origin + ": header CRC mismatch");
  }
  // Each section costs at least name_size + payload_size + CRC bytes; an
  // absurd count from a flipped bit must not drive a huge loop.
  if (section_count > data.bytes_.size() / (sizeof(uint32_t) * 2)) {
    std::ostringstream msg;
    msg << origin << ": implausible section count " << section_count;
    return util::Status::InvalidArgument(msg.str());
  }

  for (uint64_t s = 0; s < section_count; ++s) {
    const size_t section_start = reader.offset();
    uint32_t name_size = 0;
    DD_RETURN_NOT_OK(reader.Read(&name_size, "section name size"));
    if (name_size == 0 || name_size > kMaxSectionName) {
      std::ostringstream msg;
      msg << origin << ": bad section name size " << name_size
          << " at offset " << section_start;
      return util::Status::InvalidArgument(msg.str());
    }
    std::string name(name_size, '\0');
    DD_RETURN_NOT_OK(reader.ReadRaw(name.data(), name_size, "section name"));
    uint64_t payload_size = 0;
    DD_RETURN_NOT_OK(reader.Read(&payload_size, "section payload size"));
    const size_t payload_offset = reader.offset();
    DD_RETURN_NOT_OK(reader.Skip(payload_size, "section payload"));
    uint32_t section_crc = 0;
    DD_RETURN_NOT_OK(reader.Read(&section_crc, "section CRC"));
    const size_t covered = payload_offset + payload_size - section_start;
    if (Crc32(data.bytes_.data() + section_start, covered) != section_crc) {
      return util::Status::InvalidArgument(origin + ": CRC mismatch in section '" +
                                           name + "'");
    }
    const auto [it, inserted] = data.sections_.emplace(
        std::move(name), std::make_pair(payload_offset,
                                        static_cast<size_t>(payload_size)));
    if (!inserted) {
      return util::Status::InvalidArgument(origin + ": duplicate section '" +
                                           it->first + "'");
    }
  }

  std::array<char, 4> footer{};
  DD_RETURN_NOT_OK(reader.ReadRaw(footer.data(), 4, "footer magic"));
  if (footer != kFooterMagic) {
    return util::Status::InvalidArgument(origin + ": bad footer magic");
  }
  if (reader.remaining() != 0) {
    std::ostringstream msg;
    msg << origin << ": " << reader.remaining()
        << " trailing bytes after footer";
    return util::Status::InvalidArgument(msg.str());
  }
  return data;
}

util::Result<CheckpointData> CheckpointData::Read(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::IOError("cannot open " + path);
  }
  std::string bytes;
  const util::Status read = ReadRegularFile(fd, path, &bytes);
  ::close(fd);
  if (!read.ok()) return read;
  return Parse(std::move(bytes), path);
}

util::Result<std::string_view> CheckpointData::Section(
    std::string_view name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    return util::Status::NotFound(origin_ + ": no section '" +
                                  std::string(name) + "'");
  }
  return std::string_view(bytes_).substr(it->second.first,
                                         it->second.second);
}

util::Status CheckpointData::SizeMismatch(std::string_view name,
                                          size_t expected,
                                          size_t got) const {
  std::ostringstream msg;
  msg << origin_ << ": section '" << name << "' has " << got
      << " bytes, expected " << expected;
  return util::Status::InvalidArgument(msg.str());
}

Checkpointer::Checkpointer(CheckpointOptions options, RunShape shape,
                           SaveFn save_state, LoadFn load_state)
    : options_(std::move(options)),
      shape_(shape),
      save_(std::move(save_state)),
      load_(std::move(load_state)) {}

std::string Checkpointer::PathFor(uint64_t epochs_done) const {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%08llu.ckpt",
                static_cast<unsigned long long>(epochs_done));
  return (fs::path(options_.dir) / (options_.trainer + suffix)).string();
}

std::vector<std::string> Checkpointer::ListCheckpoints() const {
  std::vector<std::string> paths;
  if (options_.dir.empty()) return paths;
  std::error_code ec;
  const std::string prefix = options_.trainer + "-";
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + 5 &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  // Zero-padded epoch counters make lexicographic order chronological.
  std::sort(paths.rbegin(), paths.rend());
  return paths;
}

uint64_t Checkpointer::Resume(util::Rng& rng) {
  if (!options_.resume || options_.dir.empty()) return 0;
  for (const std::string& path : ListCheckpoints()) {
    auto read = CheckpointData::Read(path);
    if (!read.ok()) {
      WarnSkip(path, read.status());
      continue;
    }
    const CheckpointData& data = read.value();

    CheckpointMeta meta;
    util::Status status = data.ReadPod("meta", &meta);
    std::vector<char> trainer_tag;
    if (status.ok()) status = data.ReadVector("trainer", &trainer_tag);
    std::vector<uint64_t> rng_state;
    if (status.ok()) status = data.ReadVector("rng", &rng_state, 4);
    if (status.ok() &&
        std::string(trainer_tag.begin(), trainer_tag.end()) !=
            options_.trainer) {
      status = util::Status::InvalidArgument(
          path + ": trainer tag '" +
          std::string(trainer_tag.begin(), trainer_tag.end()) +
          "' does not match '" + options_.trainer + "'");
    }
    if (status.ok() &&
        (meta.total_steps != shape_.total_steps ||
         meta.steps_per_epoch != shape_.steps_per_epoch ||
         meta.shard_seed != shape_.shard_seed ||
         meta.lr_initial != shape_.lr.initial ||
         meta.lr_min_fraction != shape_.lr.min_fraction ||
         meta.lr_decay != static_cast<uint32_t>(shape_.lr.decay))) {
      status = util::Status::InvalidArgument(
          path + ": run shape does not match the current configuration");
    }
    // Commit point: trainer state last, rng only after everything loaded.
    if (status.ok()) status = load_(data);
    if (!status.ok()) {
      WarnSkip(path, status);
      continue;
    }
    rng.set_state({rng_state[0], rng_state[1], rng_state[2], rng_state[3]});
    if (obs::Enabled()) {
      obs::Registry::Default().GetCounter("checkpoint.resumes")->Add(1);
    }
    return meta.epochs_done;
  }
  return 0;
}

void Checkpointer::Write(const EpochEnd& end, const util::Rng& rng) {
  obs::TraceSpan span("checkpoint.write");
  CheckpointWriter writer;
  CheckpointMeta meta;
  meta.epochs_done = end.epoch + 1;
  meta.next_step = end.next_step;
  meta.total_steps = shape_.total_steps;
  meta.steps_per_epoch = shape_.steps_per_epoch;
  meta.shard_seed = shape_.shard_seed;
  meta.lr_initial = shape_.lr.initial;
  meta.lr_min_fraction = shape_.lr.min_fraction;
  meta.lr_decay = static_cast<uint32_t>(shape_.lr.decay);
  writer.AddPod("meta", meta);
  writer.AddSection("trainer", options_.trainer.data(),
                    options_.trainer.size());
  const std::array<uint64_t, 4> rng_state = rng.state();
  writer.AddSection("rng", rng_state.data(), rng_state.size() * 8);
  save_(writer);

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  const std::string path = PathFor(meta.epochs_done);
  util::Timer write_timer;
  const util::Status status = writer.WriteAtomic(path);
  if (!status.ok()) {
    // Losing one checkpoint must not kill a multi-hour run.
    std::cerr << "[checkpoint] write failed: " << status.ToString() << "\n";
    return;
  }
  if (obs::Enabled()) {
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("checkpoint.writes")->Add(1);
    registry.GetCounter("checkpoint.bytes")->Add(fs::file_size(path, ec));
    registry.GetHistogram("checkpoint.write_seconds")
        ->Observe(write_timer.ElapsedSeconds());
  }
  Prune();
}

void Checkpointer::Prune() const {
  if (options_.policy.keep_last == 0) return;
  const std::vector<std::string> paths = ListCheckpoints();
  for (size_t i = options_.policy.keep_last; i < paths.size(); ++i) {
    std::error_code ec;
    fs::remove(paths[i], ec);
  }
}

bool Checkpointer::AtEpochBoundary(const EpochEnd& end,
                                   const util::Rng& rng) {
  ++epochs_this_run_;
  if (enabled()) {
    const CheckpointPolicy& policy = options_.policy;
    if (end.last) {
      // The final boundary is only written on request (write_final): a
      // completed run needs no resume point, but warm-start consumers
      // need the fully-trained state.
      if (policy.write_final) Write(end, rng);
    } else {
      if ((end.epoch + 1) % policy.every_n_epochs == 0) Write(end, rng);
    }
  }
  if (options_.stop_after_epochs > 0 &&
      epochs_this_run_ >= options_.stop_after_epochs && !end.last) {
    stopped_ = true;
  }
  return stopped_;
}

}  // namespace deepdirect::train
