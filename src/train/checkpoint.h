// Crash-safe checkpoint/resume for the SGD training engine.
//
// A checkpoint is a versioned, sectioned binary container: every section is
// a (name, payload) pair protected by a CRC32 over its serialized bytes,
// the header carries its own CRC, and the file ends in a footer magic. The
// container is written atomically — gathered from the caller's buffers into
// a temp file in the target directory, fsync'ed, renamed over the
// destination, directory fsync'ed — so a crash at any byte leaves either
// the old file or the new one, never a truncated hybrid. Readers validate
// everything before exposing any byte: any truncation or bit flip yields a
// Status error anchored to the failing offset or section, never a crash or
// a silently-wrong parse.
//
// On top of the container, Checkpointer snapshots SGD state at epoch
// boundaries: the engine-owned part (epoch/step counters, run shape, the
// trainer's serial Rng stream) plus trainer-owned sections (parameter
// matrices) contributed through a save callback. The resume contract:
//   * num_threads = 1 — restoring the newest checkpoint and finishing the
//     budget is bit-identical to the uninterrupted run (the serial Rng
//     stream is part of the snapshot);
//   * num_threads > 1 — the run restarts cleanly from the last epoch
//     boundary; per-epoch worker streams are derived from (shard_seed,
//     epoch), so the resumed epochs sample identically to the
//     uninterrupted run and only the Hogwild update interleaving differs.
//
// Layout (version 1, host-endian):
//   magic "DDCK" | u32 version | u64 section_count | u32 header_crc
//   per section: u32 name_size | name | u64 payload_size | payload |
//                u32 section_crc   (CRC32 over the section's own bytes)
//   footer magic "DDEN"

#ifndef DEEPDIRECT_TRAIN_CHECKPOINT_H_
#define DEEPDIRECT_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "kernels/crc32.h"
#include "train/lr_schedule.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::train {

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

/// Builds one checkpoint container section by section, without copying
/// payloads: AddSection and AddVector record a view of the caller's bytes,
/// which must stay valid and unchanged until WriteAtomic or Serialize
/// returns. AddPod copies its value, so it takes temporaries.
class CheckpointWriter {
 public:
  /// Appends a section viewing `size` bytes at `data`. Names must be unique,
  /// non-empty, < 256 bytes.
  void AddSection(std::string_view name, const void* data, size_t size);

  /// Appends a copy of a trivially-copyable value as a section.
  template <typename T>
  void AddPod(std::string_view name, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddSection(name, &value, sizeof(T));
    Section& section = sections_.back();
    section.copy.assign(section.view);
    section.view = {};
  }

  /// Appends a section viewing a vector of trivially-copyable elements.
  template <typename T>
  void AddVector(std::string_view name, const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddSection(name, values.data(), values.size() * sizeof(T));
  }

  /// A temporary would be gone before the write.
  template <typename T>
  void AddVector(std::string_view name, const std::vector<T>&& values) =
      delete;

  /// Serializes the container (header, sections with CRCs, footer).
  std::string Serialize() const;

  /// Writes the container atomically to `path` (see AtomicWriteFile),
  /// gathering it straight from the sections' bytes.
  util::Status WriteAtomic(const std::string& path) const;

 private:
  struct Section {
    std::string name;
    std::string_view view;  ///< the caller's bytes (AddSection, AddVector)
    std::string copy;       ///< the section's own bytes (AddPod)
    std::string_view payload() const { return copy.empty() ? view : copy; }
  };

  /// The container in file order, as views of `frame` and of the payloads.
  /// `frame` receives every byte the container adds around the payloads:
  /// the header, each section's size/name prefix and CRC, and the footer.
  std::vector<std::string_view> Parts(std::string& frame) const;

  std::vector<Section> sections_;
};

/// A parsed, fully CRC-validated checkpoint container.
class CheckpointData {
 public:
  /// Parses and validates `bytes`; `origin` labels error messages (usually
  /// the path). Every structural defect — wrong magic or version, truncated
  /// header or section, CRC mismatch, duplicate section, trailing bytes —
  /// returns InvalidArgument naming the byte offset or section.
  static util::Result<CheckpointData> Parse(std::string bytes,
                                            const std::string& origin);

  /// Reads `path` and parses it. Unreadable files return IOError.
  static util::Result<CheckpointData> Read(const std::string& path);

  bool Has(std::string_view name) const {
    return sections_.contains(std::string(name));
  }

  /// Raw bytes of a section; NotFound when absent.
  util::Result<std::string_view> Section(std::string_view name) const;

  /// Copies a section into a trivially-copyable value; the section size
  /// must match exactly.
  template <typename T>
  util::Status ReadPod(std::string_view name, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto section = Section(name);
    if (!section.ok()) return section.status();
    if (section.value().size() != sizeof(T)) {
      return SizeMismatch(name, sizeof(T), section.value().size());
    }
    std::memcpy(out, section.value().data(), sizeof(T));
    return util::Status::OK();
  }

  /// Copies a section into a vector of trivially-copyable elements. When
  /// `expected_count` is non-zero the element count must match it exactly;
  /// either way the byte size must be a whole number of elements.
  template <typename T>
  util::Status ReadVector(std::string_view name, std::vector<T>* out,
                          size_t expected_count = 0) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto section = Section(name);
    if (!section.ok()) return section.status();
    const std::string_view bytes = section.value();
    if (bytes.size() % sizeof(T) != 0) {
      return SizeMismatch(name, expected_count * sizeof(T), bytes.size());
    }
    const size_t count = bytes.size() / sizeof(T);
    if (expected_count != 0 && count != expected_count) {
      return SizeMismatch(name, expected_count * sizeof(T), bytes.size());
    }
    out->resize(count);
    std::memcpy(out->data(), bytes.data(), bytes.size());
    return util::Status::OK();
  }

 private:
  explicit CheckpointData(std::string bytes, std::string origin)
      : bytes_(std::move(bytes)), origin_(std::move(origin)) {}

  util::Status SizeMismatch(std::string_view name, size_t expected,
                            size_t got) const;

  std::string bytes_;
  std::string origin_;
  /// Section name → (offset, size) into bytes_.
  std::map<std::string, std::pair<size_t, size_t>, std::less<>> sections_;
};

/// When and how many checkpoints to keep.
struct CheckpointPolicy {
  /// Write after every N completed epochs; 0 disables checkpointing.
  uint64_t every_n_epochs = 1;
  /// Keep only the newest K checkpoints of this trainer (older ones are
  /// pruned after each write); 0 keeps all.
  size_t keep_last = 3;
  /// Also write at the final epoch boundary. Off by default (a completed
  /// run needs no resume point), but required by warm-start consumers —
  /// incremental tie-batch updates (train/incremental.h) read the *final*
  /// E-step state, not the one-epoch-short snapshot resume needs.
  bool write_final = false;
};

/// Per-trainer checkpoint configuration carried in trainer configs.
struct CheckpointOptions {
  /// Directory for checkpoint files; empty disables checkpointing and
  /// resume entirely. Created on first write.
  std::string dir;
  /// Tag identifying the trainer (e.g. "deepdirect.estep"); embedded in
  /// file names and in the container, so several trainers can share a dir.
  std::string trainer;
  CheckpointPolicy policy;
  /// Scan `dir` for the newest valid checkpoint of this trainer before
  /// training and resume from it.
  bool resume = false;
  /// Simulated preemption for tests: cleanly stop the run after this many
  /// epoch boundaries have been crossed in this process (0 = off). The
  /// trainer observes the stop via Checkpointer::stopped().
  uint64_t stop_after_epochs = 0;
};

/// Epoch-boundary context handed to epoch hooks and the Checkpointer.
struct EpochEnd {
  uint64_t epoch;      ///< 0-based global epoch index just completed
  uint64_t next_step;  ///< global step index where the next epoch starts
  double loss;         ///< loss sum over the completed epoch
  bool last;           ///< no further steps remain in the budget
};

/// The run geometry a checkpoint must match to be resumable: resuming under
/// a different budget, epoch size, shard seed, or LR schedule would
/// silently break the determinism contract, so mismatches are rejected.
struct RunShape {
  uint64_t total_steps = 0;
  uint64_t steps_per_epoch = 0;
  uint64_t shard_seed = 0;
  LrSchedule lr;
};

/// Orchestrates checkpoint writes at epoch boundaries and resume scans.
///
/// The trainer contributes its parameter state through the save callback
/// (sections added to the writer) and restores it through the load
/// callback. The load callback MUST be atomic: read every section into
/// locals (ReadVector/ReadPod validate sizes), commit only after all reads
/// succeeded — a failed load may be retried against an older checkpoint.
/// Section names "meta", "trainer", and "rng" are reserved for the engine.
class Checkpointer {
 public:
  using SaveFn = std::function<void(CheckpointWriter&)>;
  using LoadFn = std::function<util::Status(const CheckpointData&)>;

  Checkpointer(CheckpointOptions options, RunShape shape, SaveFn save_state,
               LoadFn load_state);

  /// True when checkpoints will be written.
  bool enabled() const {
    return !options_.dir.empty() && options_.policy.every_n_epochs > 0;
  }

  /// Scans the directory for the newest valid checkpoint of this trainer,
  /// restores trainer state (load callback) and the serial Rng stream, and
  /// returns the number of epochs already completed (0 = start fresh).
  /// Corrupt or mismatched candidates are skipped with a warning on
  /// stderr; they never abort the run. No-op unless options.resume is set.
  uint64_t Resume(util::Rng& rng);

  /// Engine hook: called by SgdDriver after every completed epoch, with
  /// all workers quiesced. Writes a checkpoint when the policy fires.
  /// Returns true when the run must stop (simulated preemption).
  bool AtEpochBoundary(const EpochEnd& end, const util::Rng& rng);

  /// True once a simulated preemption stopped the run; trainers should
  /// skip dependent phases (the process would not have reached them).
  bool stopped() const { return stopped_; }

  /// This trainer's checkpoint paths, newest (highest epoch) first.
  std::vector<std::string> ListCheckpoints() const;

  /// The path a checkpoint for `epochs_done` completed epochs is written
  /// to. Exposed for tests.
  std::string PathFor(uint64_t epochs_done) const;

 private:
  void Write(const EpochEnd& end, const util::Rng& rng);
  void Prune() const;

  CheckpointOptions options_;
  RunShape shape_;
  SaveFn save_;
  LoadFn load_;
  uint64_t epochs_this_run_ = 0;
  bool stopped_ = false;
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_CHECKPOINT_H_
