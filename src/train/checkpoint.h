// Crash-safe checkpoint/resume for the SGD training engine.
//
// A checkpoint ("DDCK", version 2) is a file of the aligned section
// container (train/container.h) under one of three tables, one per trainer
// state: the E-step, logistic regression and LINE. Every table starts with
// the engine's sections — `meta` (CheckpointMeta), `trainer` (the tag) and
// `rng` (the serial Rng stream) — and goes on with the trainer's own.
// container::WriteFile writes a file atomically, and a reader takes it in
// with one sized read and container::Reader::Open checks every byte, so a
// truncated or corrupted file is a typed error, never a crash or a silently
// wrong load.
//
// Checkpointer snapshots SGD state at epoch boundaries from one mutable byte
// view per trainer section, and Resume copies a candidate back into those
// views only after it has passed every check. A candidate must match the
// run shape and the input it was trained on (RunShape::input_hash). The
// resume contract:
//   * num_threads = 1 — restoring the newest checkpoint and finishing the
//     budget is bit-identical to the uninterrupted run (the serial Rng
//     stream is part of the snapshot);
//   * num_threads > 1 — the run restarts cleanly from the last epoch
//     boundary; per-epoch worker streams are derived from (shard_seed,
//     epoch), so the resumed epochs sample identically to the
//     uninterrupted run and only the Hogwild update interleaving differs.

#ifndef DEEPDIRECT_TRAIN_CHECKPOINT_H_
#define DEEPDIRECT_TRAIN_CHECKPOINT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "train/container.h"
#include "train/lr_schedule.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::train {

inline constexpr std::array<char, 4> kCheckpointMagic{'D', 'D', 'C', 'K'};
inline constexpr uint32_t kCheckpointVersion = 2;

/// The engine's sections lead every table: meta, trainer, rng.
inline constexpr size_t kEngineSections = 3;

/// Payload of the `meta` section: the epoch and step counters, and the
/// RunShape a candidate must match to resume.
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
  uint64_t input_hash = 0;
};
static_assert(sizeof(CheckpointMeta) == 72);

/// The E-step state: Train's checkpoints and SaveEStepState's files.
inline constexpr const char* kEStepSections[] = {
    "meta", "trainer", "rng", "m", "n", "w_prime", "b_prime", "tie_hash"};
inline constexpr container::Format kEStepCheckpoint{
    kCheckpointMagic, kCheckpointVersion, 0, kEStepSections};

/// Logistic regression (the deepdirect.dstep, line.regression and
/// hf.regression tags).
inline constexpr const char* kLogRegSections[] = {
    "meta", "trainer", "rng", "weights", "bias", "order", "last_epoch_loss"};
inline constexpr container::Format kLogRegCheckpoint{
    kCheckpointMagic, kCheckpointVersion, 0, kLogRegSections};

/// LINE's four matrices.
inline constexpr const char* kLineSections[] = {
    "meta", "trainer", "rng", "first", "first_ctx", "second", "second_ctx"};
inline constexpr container::Format kLineCheckpoint{
    kCheckpointMagic, kCheckpointVersion, 0, kLineSections};

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

/// What a checkpoint must match to be resumable: resuming under a
/// different budget, epoch size, shard seed or LR schedule would silently
/// break the determinism contract, and resuming on other input would
/// restore a state trained on data the run does not see.
struct RunShape {
  uint64_t total_steps = 0;
  uint64_t steps_per_epoch = 0;
  uint64_t shard_seed = 0;
  LrSchedule lr;
  /// InputHash of everything the trainer reads; each trainer computes it
  /// when checkpointing is on.
  uint64_t input_hash = 0;
};

/// FNV-1a over 64-bit words, fed one field at a time so that no struct
/// padding enters the hash.
class InputHash {
 public:
  template <typename T>
  void Add(T value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(T));
    hash_ = (hash_ ^ word) * 0x100000001b3ULL;
  }
  template <typename Range>
  void AddAll(const Range& values) {
    for (const auto value : values) Add(value);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// `<dir>/<trainer>-<epochs_done, 8 digits>.ckpt`.
std::string CheckpointPath(const std::string& dir, const std::string& trainer,
                           uint64_t epochs_done);

/// `trainer`'s checkpoint paths in `dir`, newest (highest epoch) first.
std::vector<std::string> ListCheckpoints(const std::string& dir,
                                         const std::string& trainer);

/// Writes a checkpoint of `table` to CheckpointPath(dir, trainer,
/// meta.epochs_done), creating `dir`: the engine's sections, then `state`,
/// one payload per trainer section in table order.
util::Status WriteCheckpoint(const container::Format& table,
                             const std::string& dir,
                             const std::string& trainer,
                             const CheckpointMeta& meta,
                             const std::array<uint64_t, 4>& rng,
                             std::span<const container::Payload> state);

/// Reads the regular file at `path` into `*bytes` with one sized read.
/// Anything but a regular file, or a short read, is an IOError.
util::Status ReadCheckpointFile(const std::string& path, std::string* bytes);

/// Opens `bytes`, read from `path`, under `table`, checks that it is
/// `trainer`'s, and copies its meta into `*meta`. The reader views `bytes`.
util::Result<container::Reader> OpenCheckpoint(const container::Format& table,
                                               const std::string& trainer,
                                               const std::string& path,
                                               std::string_view bytes,
                                               CheckpointMeta* meta);

/// Orchestrates checkpoint writes at epoch boundaries and resume scans.
///
/// The trainer hands over its table and one mutable byte view per trainer
/// section (the table's sections after the engine's, in order). Write
/// gathers the views; Resume overwrites them, but only with a candidate
/// that passed Check, so no trainer checks or loads a section itself. The
/// views must keep their memory and size while the Checkpointer lives.
class Checkpointer {
 public:
  Checkpointer(CheckpointOptions options, RunShape shape,
               const container::Format& table,
               std::vector<std::span<std::byte>> state);

  /// True when checkpoints will be written.
  bool enabled() const {
    return !options_.dir.empty() && options_.policy.every_n_epochs > 0;
  }

  /// Scans the directory for the newest candidate that passes Check, copies
  /// its sections into the trainer's views, restores the serial Rng stream,
  /// and returns the number of epochs already completed (0 = start fresh).
  /// Candidates that fail are skipped with a warning on stderr and touch
  /// neither the views nor `rng`. No-op unless options.resume is set.
  uint64_t Resume(util::Rng& rng);

  /// The check Resume runs on a candidate read from `path`: the container,
  /// the trainer tag, the run shape, the input hash, and every section's
  /// size against the live views. Copies nothing.
  util::Result<container::Reader> Check(const std::string& path,
                                        std::string_view bytes) const;

  /// Engine hook: called by SgdDriver after every completed epoch, with
  /// all workers quiesced. Writes a checkpoint when the policy fires.
  /// Returns true when the run must stop (simulated preemption).
  bool AtEpochBoundary(const EpochEnd& end, const util::Rng& rng);

  /// True once a simulated preemption stopped the run; trainers should
  /// skip dependent phases (the process would not have reached them).
  bool stopped() const { return stopped_; }

 private:
  void Write(const EpochEnd& end, const util::Rng& rng);
  void Prune() const;

  CheckpointOptions options_;
  RunShape shape_;
  const container::Format* table_;
  std::vector<std::span<std::byte>> state_;
  uint64_t epochs_this_run_ = 0;
  bool stopped_ = false;
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_CHECKPOINT_H_
