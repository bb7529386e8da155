#include "train/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace deepdirect::train {
namespace {

namespace fs = std::filesystem;

CheckpointMeta MakeMeta(const RunShape& shape, uint64_t epochs_done,
                        uint64_t next_step) {
  CheckpointMeta meta;
  meta.epochs_done = epochs_done;
  meta.next_step = next_step;
  meta.total_steps = shape.total_steps;
  meta.steps_per_epoch = shape.steps_per_epoch;
  meta.shard_seed = shape.shard_seed;
  meta.lr_initial = shape.lr.initial;
  meta.lr_min_fraction = shape.lr.min_fraction;
  meta.lr_decay = static_cast<uint32_t>(shape.lr.decay);
  meta.input_hash = shape.input_hash;
  return meta;
}

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

std::string CheckpointPath(const std::string& dir, const std::string& trainer,
                           uint64_t epochs_done) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%08llu.ckpt",
                static_cast<unsigned long long>(epochs_done));
  return (fs::path(dir) / (trainer + suffix)).string();
}

std::vector<std::string> ListCheckpoints(const std::string& dir,
                                         const std::string& trainer) {
  std::vector<std::string> paths;
  if (dir.empty()) return paths;
  std::error_code ec;
  const std::string prefix = trainer + "-";
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
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

util::Status WriteCheckpoint(const container::Format& table,
                             const std::string& dir,
                             const std::string& trainer,
                             const CheckpointMeta& meta,
                             const std::array<uint64_t, 4>& rng,
                             std::span<const container::Payload> state) {
  std::vector<container::Payload> payloads{
      {&meta, sizeof(meta)},
      {trainer.data(), trainer.size()},
      {rng.data(), sizeof(rng)}};
  payloads.insert(payloads.end(), state.begin(), state.end());
  std::error_code ec;
  fs::create_directories(dir, ec);
  return container::WriteFile(table, payloads,
                              CheckpointPath(dir, trainer, meta.epochs_done));
}

util::Status ReadCheckpointFile(const std::string& path, std::string* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return util::Status::IOError("cannot open " + path);
  const util::Status status = ReadRegularFile(fd, path, bytes);
  ::close(fd);
  return status;
}

util::Result<container::Reader> OpenCheckpoint(const container::Format& table,
                                               const std::string& trainer,
                                               const std::string& path,
                                               std::string_view bytes,
                                               CheckpointMeta* meta) {
  auto opened =
      container::Reader::Open(table, path, bytes.data(), bytes.size());
  if (!opened.ok()) return opened.status();
  const container::Reader& reader = opened.value();
  DD_RETURN_NOT_OK(reader.ReadMeta(meta));
  const auto tag = reader.Array<char>(1);
  if (std::string_view(tag.data(), tag.size()) != trainer) {
    return reader.Defect("trainer tag '" +
                         std::string(tag.data(), tag.size()) +
                         "' does not match '" + trainer + "'");
  }
  return opened;
}

Checkpointer::Checkpointer(CheckpointOptions options, RunShape shape,
                           const container::Format& table,
                           std::vector<std::span<std::byte>> state)
    : options_(std::move(options)),
      shape_(shape),
      table_(&table),
      state_(std::move(state)) {
  DD_CHECK_EQ(table.sections.size(), kEngineSections + state_.size());
}

util::Result<container::Reader> Checkpointer::Check(
    const std::string& path, std::string_view bytes) const {
  CheckpointMeta meta;
  auto opened = OpenCheckpoint(*table_, options_.trainer, path, bytes, &meta);
  if (!opened.ok()) return opened.status();
  const container::Reader& reader = opened.value();
  if (meta.total_steps != shape_.total_steps ||
      meta.steps_per_epoch != shape_.steps_per_epoch ||
      meta.shard_seed != shape_.shard_seed ||
      meta.lr_initial != shape_.lr.initial ||
      meta.lr_min_fraction != shape_.lr.min_fraction ||
      meta.lr_decay != static_cast<uint32_t>(shape_.lr.decay)) {
    return reader.Defect("run shape does not match the current configuration");
  }
  if (meta.input_hash != shape_.input_hash) {
    return reader.Defect("trained on other input than this run's");
  }
  std::vector<uint64_t> sizes{sizeof(CheckpointMeta), options_.trainer.size(),
                              sizeof(std::array<uint64_t, 4>)};
  for (const std::span<std::byte> view : state_) sizes.push_back(view.size());
  DD_RETURN_NOT_OK(reader.CheckSizes(sizes));
  return opened;
}

uint64_t Checkpointer::Resume(util::Rng& rng) {
  if (!options_.resume || options_.dir.empty()) return 0;
  for (const std::string& path : ListCheckpoints(options_.dir,
                                                 options_.trainer)) {
    std::string bytes;
    const util::Status read = ReadCheckpointFile(path, &bytes);
    auto checked = read.ok() ? Check(path, bytes)
                             : util::Result<container::Reader>(read);
    if (!checked.ok()) {
      WarnSkip(path, checked.status());
      continue;
    }
    // Every check passed: only now do the views and the RNG change.
    const container::Reader& reader = checked.value();
    for (size_t i = 0; i < state_.size(); ++i) {
      const auto section = reader.Array<std::byte>(kEngineSections + i);
      std::copy(section.begin(), section.end(), state_[i].begin());
    }
    CheckpointMeta meta;
    std::memcpy(&meta, reader.Array<std::byte>(0).data(), sizeof(meta));
    std::array<uint64_t, 4> rng_state;
    std::memcpy(rng_state.data(), reader.Array<std::byte>(2).data(),
                sizeof(rng_state));
    rng.set_state(rng_state);
    if (obs::Enabled()) {
      obs::Registry::Default().GetCounter("checkpoint.resumes")->Add(1);
    }
    return meta.epochs_done;
  }
  return 0;
}

void Checkpointer::Write(const EpochEnd& end, const util::Rng& rng) {
  obs::TraceSpan span("checkpoint.write");
  const CheckpointMeta meta = MakeMeta(shape_, end.epoch + 1, end.next_step);
  std::vector<container::Payload> state;
  for (const std::span<std::byte> view : state_) {
    state.push_back({view.data(), view.size()});
  }
  util::Timer write_timer;
  const util::Status status = WriteCheckpoint(
      *table_, options_.dir, options_.trainer, meta, rng.state(), state);
  if (!status.ok()) {
    // Losing one checkpoint must not kill a multi-hour run.
    std::cerr << "[checkpoint] write failed: " << status.ToString() << "\n";
    return;
  }
  if (obs::Enabled()) {
    obs::Registry& registry = obs::Registry::Default();
    std::error_code ec;
    registry.GetCounter("checkpoint.writes")->Add(1);
    registry.GetCounter("checkpoint.bytes")
        ->Add(fs::file_size(
            CheckpointPath(options_.dir, options_.trainer, meta.epochs_done),
            ec));
    registry.GetHistogram("checkpoint.write_seconds")
        ->Observe(write_timer.ElapsedSeconds());
  }
  Prune();
}

void Checkpointer::Prune() const {
  if (options_.policy.keep_last == 0) return;
  const std::vector<std::string> paths =
      ListCheckpoints(options_.dir, options_.trainer);
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
