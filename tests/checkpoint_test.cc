// Tests for the crash-safe checkpoint layer (src/train/checkpoint.{h,cc}):
// round trips through a Checkpointer, the size check against the trainer's
// live views, the fault-injection sweeps (every truncation point and every
// single-byte corruption of a real checkpoint of each trainer's table), the
// write/retention policy, resume candidate selection, and the driver-level
// resume determinism contract on a toy trainer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/deepdirect.h"
#include "data/generators.h"
#include "embedding/line.h"
#include "file_size_limit.h"
#include "graph/algorithms.h"
#include "ml/logistic_regression.h"
#include "train/checkpoint.h"
#include "train/incremental.h"
#include "train/sgd_driver.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::train {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test; removed on teardown.
class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ckpt_test_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
std::span<std::byte> View(T& value) {
  return std::as_writable_bytes(std::span(&value, 1));
}

template <typename T>
std::span<std::byte> View(std::vector<T>& values) {
  return std::as_writable_bytes(std::span(values));
}

// --- Files ----------------------------------------------------------------

TEST_F(CheckpointTest, Crc32MatchesKnownAnswer) {
  // The CRC the container stamps on every checkpoint section: the IEEE
  // CRC32 check value ("123456789" -> 0xCBF43926).
  const char data[] = "123456789";
  EXPECT_EQ(container::Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(container::Crc32(data, 0), 0u);
  // Incremental feeding matches the one-shot result.
  uint32_t crc = container::Crc32Update(0, data, 4);
  crc = container::Crc32Update(crc, data + 4, 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

// A toy table with one trainer section.
constexpr const char* kToySections[] = {"meta", "trainer", "rng", "state"};
constexpr container::Format kToyTable{kCheckpointMagic, kCheckpointVersion, 0,
                                      kToySections};

util::Status WriteToy(const std::string& dir, uint64_t epochs_done,
                      const void* state, size_t size) {
  CheckpointMeta meta;
  meta.epochs_done = epochs_done;
  const container::Payload payload{state, size};
  return WriteCheckpoint(kToyTable, dir, "toy", meta, util::Rng(1).state(),
                         {&payload, 1});
}

TEST_F(CheckpointTest, WriteAtomicLeavesNoTempFile) {
  const uint64_t state = 41;
  ASSERT_TRUE(WriteToy(dir_, 1, &state, sizeof(state)).ok());
  const std::string path = CheckpointPath(dir_, "toy", 1);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::string bytes;
  ASSERT_TRUE(ReadCheckpointFile(path, &bytes).ok());
  CheckpointMeta meta;
  auto opened = OpenCheckpoint(kToyTable, "toy", path, bytes, &meta);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(meta.epochs_done, 1u);
}

TEST_F(CheckpointTest, ReadOfMissingFileIsIOError) {
  std::string bytes;
  EXPECT_EQ(ReadCheckpointFile(Path("nope.ckpt"), &bytes).code(),
            util::StatusCode::kIOError);
}

// A directory opens for reading but is no file: a wrong path must not be
// reported as a corrupt checkpoint.
TEST_F(CheckpointTest, ReadOfDirectoryIsIOError) {
  std::string bytes;
  const util::Status status = ReadCheckpointFile(dir_, &bytes);
  EXPECT_EQ(status.code(), util::StatusCode::kIOError) << status.ToString();
}

// A write that fails part-way (here at the file-size limit, after a short
// write) returns IOError, removes its temp file and leaves the previous
// checkpoint byte for byte.
TEST_F(CheckpointTest, FailedWriteKeepsTheTargetAndLeavesNoTempFile) {
  const uint64_t state = 41;
  ASSERT_TRUE(WriteToy(dir_, 1, &state, sizeof(state)).ok());
  const std::string path = CheckpointPath(dir_, "toy", 1);
  const std::string before = ReadFile(path);
  const std::vector<double> big(4096, 0.25);
  util::Status status;
  {
    const testing::FileSizeLimit limit(big.size() * sizeof(double) / 2);
    ASSERT_TRUE(limit.active());
    status = WriteToy(dir_, 1, big.data(), big.size() * sizeof(double));
  }
  EXPECT_EQ(status.code(), util::StatusCode::kIOError) << status.ToString();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(ReadFile(path), before);
}

// --- Checkpointer policy / retention / resume --------------------------

constexpr uint64_t kToyEpochs = 10;
constexpr uint64_t kToySteps = 100;  // 10 steps per epoch

RunShape ToyShape() {
  return RunShape{kToySteps, kToySteps / kToyEpochs, 7,
                  LrSchedule{0.1, 0.01, LrSchedule::Decay::kClampedLinear}};
}

CheckpointOptions ToyOptions(const std::string& dir) {
  CheckpointOptions options;
  options.dir = dir;
  options.trainer = "toy";
  return options;
}

// A Checkpointer over one uint64 counter; `state` must outlive it.
Checkpointer ToyCheckpointer(const CheckpointOptions& options,
                             uint64_t* state) {
  return Checkpointer(options, ToyShape(), kToyTable, {View(*state)});
}

// Drives `epochs` boundaries as the SgdDriver would.
void DriveEpochs(Checkpointer& ckpt, uint64_t* state, util::Rng& rng,
                 uint64_t first_epoch, uint64_t epochs) {
  const uint64_t spe = kToySteps / kToyEpochs;
  for (uint64_t e = first_epoch; e < first_epoch + epochs; ++e) {
    *state += e + 1;
    const EpochEnd end{e, (e + 1) * spe, 0.0, (e + 1) * spe >= kToySteps};
    if (ckpt.AtEpochBoundary(end, rng)) break;
  }
}

// A table with a one-value section, an empty one and an array.
constexpr const char* kKindsSections[] = {"meta",    "trainer", "rng",
                                          "counter", "empty",   "blob"};
constexpr container::Format kKindsTable{kCheckpointMagic, kCheckpointVersion,
                                        0, kKindsSections};

TEST_F(CheckpointTest, ContainerRoundTripsAllSectionKinds) {
  uint64_t counter = 41;
  std::vector<float> blob(37);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<float>(i) * 0.5f;
  }
  util::Rng rng(1);
  Checkpointer writer(ToyOptions(dir_), ToyShape(), kKindsTable,
                      {View(counter), {}, View(blob)});
  writer.AtEpochBoundary({0, 10, 0.0, false}, rng);

  CheckpointOptions options = ToyOptions(dir_);
  options.resume = true;
  uint64_t restored_counter = 0;
  std::vector<float> restored_blob(37, 0.0f);
  Checkpointer reader(options, ToyShape(), kKindsTable,
                      {View(restored_counter), {}, View(restored_blob)});
  util::Rng fresh_rng(99);
  EXPECT_EQ(reader.Resume(fresh_rng), 1u);
  EXPECT_EQ(restored_counter, 41u);
  EXPECT_EQ(restored_blob, blob);
  EXPECT_EQ(fresh_rng.Next(), rng.Next());
}

// Each trainer section must be exactly its live view's size: a narrower
// value, fewer elements or another element width is an InvalidArgument.
TEST_F(CheckpointTest, TypedReadsRejectSizeMismatches) {
  uint64_t counter = 41;
  std::vector<float> blob(37, 1.0f);
  util::Rng rng(1);
  Checkpointer writer(ToyOptions(dir_), ToyShape(), kKindsTable,
                      {View(counter), {}, View(blob)});
  writer.AtEpochBoundary({0, 10, 0.0, false}, rng);
  const std::string path = CheckpointPath(dir_, "toy", 1);
  const std::string bytes = ReadFile(path);

  uint32_t narrow = 0;
  std::vector<float> short_blob(5);
  std::vector<double> wide_blob(18);  // 37 floats are no whole double count
  const std::vector<std::vector<std::span<std::byte>>> mismatches = {
      {View(narrow), {}, View(blob)},
      {View(counter), {}, View(short_blob)},
      {View(counter), {}, View(wide_blob)},
      {View(counter), View(narrow), View(blob)},
  };
  for (const auto& views : mismatches) {
    const Checkpointer reader(ToyOptions(dir_), ToyShape(), kKindsTable,
                              views);
    EXPECT_EQ(reader.Check(path, bytes).status().code(),
              util::StatusCode::kInvalidArgument);
  }
}

TEST_F(CheckpointTest, KeepLastPrunesOldestCheckpoints) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.keep_last = 3;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);

  // Boundaries 1..9 wrote (the final boundary does not); 3 newest survive.
  const auto paths = ListCheckpoints(dir_, "toy");
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], CheckpointPath(dir_, "toy", 9));
  EXPECT_EQ(paths[1], CheckpointPath(dir_, "toy", 8));
  EXPECT_EQ(paths[2], CheckpointPath(dir_, "toy", 7));
  EXPECT_FALSE(fs::exists(CheckpointPath(dir_, "toy", 6)));
}

TEST_F(CheckpointTest, ZeroEpochCadenceDisablesWrites) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.every_n_epochs = 0;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  EXPECT_FALSE(ckpt.enabled());
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);
  EXPECT_TRUE(ListCheckpoints(dir_, "toy").empty());
  EXPECT_FALSE(ckpt.stopped());
}

TEST_F(CheckpointTest, ResumeRestoresNewestCheckpoint) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 4);
  const uint64_t state_at_4 = state;

  options.resume = true;
  uint64_t restored = 0;
  util::Rng fresh_rng(99);
  Checkpointer reader(ToyCheckpointer(options, &restored));
  EXPECT_EQ(reader.Resume(fresh_rng), 4u);
  EXPECT_EQ(restored, state_at_4);
  // The RNG stream continues exactly where the writer's stood.
  EXPECT_EQ(fresh_rng.Next(), rng.Next());
}

TEST_F(CheckpointTest, ResumeSkipsCorruptNewestCheckpoint) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 2);
  const uint64_t state_at_1 = 1;  // after boundary 0 only

  // Corrupt the newest checkpoint (epoch 2): flip one payload byte.
  const std::string newest = CheckpointPath(dir_, "toy", 2);
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() - 4] ^= 0x10;
  WriteFile(newest, bytes);

  options.resume = true;
  uint64_t restored = 0;
  util::Rng fresh_rng(99);
  Checkpointer reader(ToyCheckpointer(options, &restored));
  EXPECT_EQ(reader.Resume(fresh_rng), 1u);
  EXPECT_EQ(restored, state_at_1);
}

TEST_F(CheckpointTest, ResumeIgnoresOtherTrainersAndShapes) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 3);

  // A different trainer tag sees nothing, even in the same directory.
  CheckpointOptions other_trainer = options;
  other_trainer.trainer = "other";
  other_trainer.resume = true;
  uint64_t restored = 0;
  util::Rng r1(2);
  Checkpointer other(ToyCheckpointer(other_trainer, &restored));
  EXPECT_EQ(other.Resume(r1), 0u);

  // A changed run shape (different budget) rejects every candidate, and so
  // does other input.
  CheckpointOptions resumed = options;
  resumed.resume = true;
  RunShape other_budget = ToyShape();
  other_budget.total_steps *= 2;
  RunShape other_input = ToyShape();
  other_input.input_hash = 1;
  for (const RunShape& shape : {other_budget, other_input}) {
    Checkpointer mismatched(resumed, shape, kToyTable, {View(restored)});
    util::Rng r2(2);
    EXPECT_EQ(mismatched.Resume(r2), 0u);
    EXPECT_EQ(restored, 0u);
  }
}

TEST_F(CheckpointTest, FailedTrainerLoadLeavesRngUntouched) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 2);

  // Every candidate holds 8 state bytes and the trainer has 12: the
  // caller's RNG keeps its pre-resume stream and its buffer its bytes (no
  // partial restore).
  options.resume = true;
  std::vector<uint32_t> wrong_size = {7, 8, 9};
  Checkpointer rejecting(options, ToyShape(), kToyTable, {View(wrong_size)});
  util::Rng probe(99);
  util::Rng untouched(99);
  EXPECT_EQ(rejecting.Resume(probe), 0u);
  EXPECT_EQ(probe.Next(), untouched.Next());
  EXPECT_EQ(wrong_size, (std::vector<uint32_t>{7, 8, 9}));
}

TEST_F(CheckpointTest, StopAfterEpochsSimulatesPreemption) {
  CheckpointOptions options = ToyOptions(dir_);
  options.stop_after_epochs = 4;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);
  EXPECT_TRUE(ckpt.stopped());
  // Stopped after 4 boundaries: epochs 5.. never ran.
  EXPECT_EQ(state, 1u + 2u + 3u + 4u);
  EXPECT_EQ(ListCheckpoints(dir_, "toy").front(),
            CheckpointPath(dir_, "toy", 4));
}

// --- Fault sweeps over a real checkpoint of each table --------------------

// Writes one small checkpoint of each trainer table into `dir`: the E-step
// of DeepDirectModel::Train, logistic regression and LINE.
void WriteRealCheckpoints(const std::string& dir) {
  data::GeneratorConfig gen;
  gen.num_nodes = 24;
  gen.ties_per_node = 2.0;
  gen.seed = 3;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng split_rng(4);
  const auto split = graph::HideDirections(net, 0.5, split_rng);

  core::DeepDirectConfig deepdirect;
  deepdirect.dimensions = 4;
  deepdirect.epochs = 2.0;
  deepdirect.d_step.epochs = 2;
  deepdirect.checkpoint.dir = dir;
  core::DeepDirectModel::Train(split.network, deepdirect);

  ml::Dataset data(2);
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const double x0 = rng.NextDoubleIn(-1, 1);
    const double x1 = rng.NextDoubleIn(-1, 1);
    data.Add(std::vector<double>{x0, x1}, x0 > x1 ? 1.0 : 0.0);
  }
  ml::LogisticRegressionConfig logreg;
  logreg.epochs = 2;
  logreg.checkpoint.dir = dir;
  ml::LogisticRegression(2).Train(data, logreg);

  embedding::LineConfig line;
  line.dimensions = 4;
  line.samples_per_arc = 2;
  line.checkpoint.dir = dir;
  embedding::LineEmbedding::Train(net, line);
}

struct RealTable {
  const container::Format* table;
  const char* trainer;
};
constexpr RealTable kRealTables[] = {{&kEStepCheckpoint, "deepdirect.estep"},
                                     {&kLogRegCheckpoint, "logreg"},
                                     {&kLineCheckpoint, "line"}};

// The newest checkpoint a trainer wrote to `dir`, and a Checkpointer set up
// like that trainer's at resume from `resume_dir`: the shape comes from the
// file's meta and the views are sized like its sections, so the intact file
// passes Check.
class RealCheckpoint {
 public:
  RealCheckpoint(const RealTable& real, const std::string& dir,
                 const std::string& resume_dir)
      : path_(ListCheckpoints(dir, real.trainer).front()) {
    EXPECT_TRUE(ReadCheckpointFile(path_, &bytes_).ok());
    CheckpointMeta meta;
    auto opened = OpenCheckpoint(*real.table, real.trainer, path_, bytes_,
                                 &meta);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    const RunShape shape{
        meta.total_steps, meta.steps_per_epoch, meta.shard_seed,
        LrSchedule{meta.lr_initial, meta.lr_min_fraction,
                   static_cast<LrSchedule::Decay>(meta.lr_decay)},
        meta.input_hash};
    std::vector<std::span<std::byte>> views;
    for (size_t i = kEngineSections; i < real.table->sections.size(); ++i) {
      // A sentinel fill: a failed resume must leave it in place.
      buffers_.emplace_back(
          opened.value().Array<std::byte>(i).size(), std::byte{0x5C});
      views.push_back(buffers_.back());
    }
    CheckpointOptions options;
    options.dir = resume_dir;
    options.trainer = real.trainer;
    options.resume = true;
    checkpointer_.emplace(options, shape, *real.table, std::move(views));
  }

  const std::string& bytes() const { return bytes_; }
  Checkpointer& checkpointer() { return *checkpointer_; }
  util::Status Check(std::string_view bytes) const {
    return checkpointer_->Check(path_, bytes).status();
  }
  bool BuffersUntouched() const {
    for (const auto& buffer : buffers_) {
      for (std::byte b : buffer) {
        if (b != std::byte{0x5C}) return false;
      }
    }
    return true;
  }

 private:
  std::string path_;
  std::string bytes_;
  std::vector<std::vector<std::byte>> buffers_;
  std::optional<Checkpointer> checkpointer_;
};

// A write interrupted after byte k leaves a strict prefix: every prefix of
// each table's checkpoint, including the empty file, fails the check
// Resume runs on a candidate.
TEST_F(CheckpointTest, EveryTruncationPointIsRejected) {
  WriteRealCheckpoints(dir_);
  for (const RealTable& real : kRealTables) {
    RealCheckpoint checkpoint(real, dir_, dir_);
    const std::string& bytes = checkpoint.bytes();
    ASSERT_TRUE(checkpoint.Check(bytes).ok()) << real.trainer;
    for (size_t k = 0; k < bytes.size(); ++k) {
      const util::Status status = checkpoint.Check(bytes.substr(0, k));
      ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << real.trainer << ": prefix of " << k << " bytes";
    }
  }
}

// Flipping any single byte anywhere (header, table, padding, any section)
// and appending a byte (a torn double write) must each be detected.
TEST_F(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  WriteRealCheckpoints(dir_);
  for (const RealTable& real : kRealTables) {
    RealCheckpoint checkpoint(real, dir_, dir_);
    const std::string& bytes = checkpoint.bytes();
    for (size_t k = 0; k < bytes.size(); ++k) {
      std::string corrupted = bytes;
      corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
      ASSERT_EQ(checkpoint.Check(corrupted).code(),
                util::StatusCode::kInvalidArgument)
          << real.trainer << ": flip at byte " << k;
    }
    EXPECT_EQ(checkpoint.Check(bytes + "x").code(),
              util::StatusCode::kInvalidArgument);
  }
}

// A few damaged files per table, each the only candidate on disk: Resume
// starts fresh and leaves the RNG and the trainer's buffers as they were.
// LoadEStepState finds no usable E-step state in them.
TEST_F(CheckpointTest, ResumeSkipsDamagedRealCheckpoints) {
  WriteRealCheckpoints(dir_);
  const std::string damaged_dir = Path("damaged");
  for (const RealTable& real : kRealTables) {
    RealCheckpoint checkpoint(real, dir_, dir_);
    const std::string& bytes = checkpoint.bytes();
    std::vector<std::string> damaged;
    for (size_t k : {size_t{0}, size_t{31}, bytes.size() / 2,
                     bytes.size() - 1}) {
      damaged.push_back(bytes.substr(0, k));
      std::string flipped = bytes;
      flipped[k] = static_cast<char>(flipped[k] ^ 0x01);
      damaged.push_back(flipped);
    }
    for (const std::string& candidate : damaged) {
      fs::remove_all(damaged_dir);
      fs::create_directories(damaged_dir);
      WriteFile(CheckpointPath(damaged_dir, real.trainer, 1), candidate);
      RealCheckpoint reader(real, dir_, damaged_dir);
      util::Rng probe(99);
      util::Rng untouched(99);
      EXPECT_EQ(reader.checkpointer().Resume(probe), 0u) << real.trainer;
      EXPECT_EQ(probe.Next(), untouched.Next());
      EXPECT_TRUE(reader.BuffersUntouched());
      if (real.table == &kEStepCheckpoint) {
        EXPECT_EQ(LoadEStepState(damaged_dir).status().code(),
                  util::StatusCode::kNotFound);
      }
    }
  }
}

// --- Driver-level resume determinism on a toy trainer ------------------

constexpr const char* kParamsSections[] = {"meta", "trainer", "rng",
                                           "params"};
constexpr container::Format kParamsTable{
    kCheckpointMagic, kCheckpointVersion, 0, kParamsSections};

// A minimal RNG-consuming trainer on the real SgdDriver: params[i] nudged
// by draws from the step RNG. Returns the final parameters.
std::vector<float> RunToyTrainer(const std::string& ckpt_dir, bool resume,
                                 uint64_t stop_after_epochs,
                                 size_t num_threads = 1) {
  constexpr size_t kParams = 32;
  std::vector<float> params(kParams, 0.0f);
  util::Rng rng(42);
  // Deterministic init consumes the stream before training, as the real
  // trainers' FillUniform does.
  for (float& p : params) {
    p = static_cast<float>(rng.NextDouble()) * 0.01f;
  }

  SgdOptions options;
  options.steps = kToySteps;
  options.steps_per_epoch = kToySteps / kToyEpochs;
  options.num_threads = num_threads;
  options.lr = LrSchedule{0.1, 0.01, LrSchedule::Decay::kClampedLinear};
  options.shard_seed = 7;

  CheckpointOptions ckpt_options;
  ckpt_options.dir = ckpt_dir;
  ckpt_options.trainer = "toy_driver";
  ckpt_options.resume = resume;
  ckpt_options.stop_after_epochs = stop_after_epochs;
  Checkpointer checkpointer(
      ckpt_options,
      RunShape{options.steps, options.steps_per_epoch, options.shard_seed,
               options.lr},
      kParamsTable, {View(params)});
  options.start_epoch = checkpointer.Resume(rng);
  options.checkpointer = &checkpointer;

  SgdDriver driver(options);
  driver.Run(rng, [&](auto access, const SgdStep& ctx) -> double {
    using A = decltype(access);
    const size_t i = ctx.rng.NextIndex(kParams);
    const float delta =
        static_cast<float>(ctx.lr * (ctx.rng.NextDouble() - 0.5));
    A::Store(params[i], A::Load(params[i]) + delta);
    return static_cast<double>(delta);
  });
  return params;
}

TEST_F(CheckpointTest, SerialResumeIsBitIdenticalFromEveryBoundary) {
  const std::vector<float> straight = RunToyTrainer("", false, 0);
  for (uint64_t stop = 1; stop < kToyEpochs; ++stop) {
    const std::string dir = Path("stop_" + std::to_string(stop));
    fs::create_directories(dir);
    RunToyTrainer(dir, false, stop);       // interrupted run
    const std::vector<float> resumed = RunToyTrainer(dir, true, 0);
    EXPECT_EQ(resumed, straight) << "interrupted after epoch " << stop;
  }
}

TEST_F(CheckpointTest, MultiThreadedResumeCompletesCleanly) {
  const std::string dir = Path("mt");
  fs::create_directories(dir);
  RunToyTrainer(dir, false, 3, 4);
  const std::vector<float> resumed = RunToyTrainer(dir, true, 0, 4);
  // Hogwild resume restarts from the boundary and must finish with sane,
  // bounded parameters (the exact interleaving is not reproducible).
  for (float p : resumed) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_LT(std::abs(p), 1.0f);
  }
}

}  // namespace
}  // namespace deepdirect::train
