// Tests for the crash-safe checkpoint layer (src/train/checkpoint.{h,cc}):
// container format round trips, the fault-injection sweeps (every
// truncation point, single-byte corruption over the whole file), the
// write/retention policy, resume candidate selection, and the driver-level
// resume determinism contract on a toy trainer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "file_size_limit.h"
#include "train/checkpoint.h"
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

// A writer with a representative section mix: metadata-sized POD, an empty
// payload, and a float blob. The writer views the blob, so it is static.
CheckpointWriter SampleWriter() {
  static const std::vector<float> blob = [] {
    std::vector<float> values(37);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<float>(i) * 0.5f;
    }
    return values;
  }();
  CheckpointWriter writer;
  const uint64_t counter = 41;
  writer.AddPod("counter", counter);
  writer.AddSection("empty", nullptr, 0);
  writer.AddVector("blob", blob);
  return writer;
}

TEST_F(CheckpointTest, Crc32MatchesKnownAnswer) {
  // The IEEE CRC32 check value ("123456789" -> 0xCBF43926).
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(data, 0), 0u);
  // Incremental feeding matches the one-shot result.
  uint32_t crc = Crc32Update(0, data, 4);
  crc = Crc32Update(crc, data + 4, 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST_F(CheckpointTest, ContainerRoundTripsAllSectionKinds) {
  const std::string bytes = SampleWriter().Serialize();
  auto parsed = CheckpointData::Parse(bytes, "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CheckpointData& data = parsed.value();

  EXPECT_TRUE(data.Has("counter"));
  EXPECT_TRUE(data.Has("empty"));
  EXPECT_TRUE(data.Has("blob"));
  EXPECT_FALSE(data.Has("missing"));

  uint64_t counter = 0;
  ASSERT_TRUE(data.ReadPod("counter", &counter).ok());
  EXPECT_EQ(counter, 41u);
  EXPECT_EQ(data.Section("empty").value().size(), 0u);
  std::vector<float> blob;
  ASSERT_TRUE(data.ReadVector("blob", &blob, 37).ok());
  EXPECT_EQ(blob[36], 18.0f);

  EXPECT_EQ(data.Section("missing").status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(CheckpointTest, TypedReadsRejectSizeMismatches) {
  const std::string bytes = SampleWriter().Serialize();
  auto parsed = CheckpointData::Parse(bytes, "test");
  ASSERT_TRUE(parsed.ok());

  uint32_t narrow = 0;  // section holds 8 bytes
  EXPECT_EQ(parsed.value().ReadPod("counter", &narrow).code(),
            util::StatusCode::kInvalidArgument);
  std::vector<float> blob;
  EXPECT_EQ(parsed.value().ReadVector("blob", &blob, 5).code(),
            util::StatusCode::kInvalidArgument);
  std::vector<double> wrong_width;  // 37 floats are not a whole double count
  EXPECT_EQ(parsed.value().ReadVector("blob", &wrong_width).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, WriteAtomicLeavesNoTempFile) {
  const std::string path = Path("atomic.ckpt");
  ASSERT_TRUE(SampleWriter().WriteAtomic(path).ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  auto read = CheckpointData::Read(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
}

TEST_F(CheckpointTest, ReadOfMissingFileIsIOError) {
  auto read = CheckpointData::Read(Path("nope.ckpt"));
  EXPECT_EQ(read.status().code(), util::StatusCode::kIOError);
}

// A directory opens for reading but is no file: a wrong path must not be
// reported as a corrupt checkpoint.
TEST_F(CheckpointTest, ReadOfDirectoryIsIOError) {
  auto read = CheckpointData::Read(dir_);
  EXPECT_EQ(read.status().code(), util::StatusCode::kIOError)
      << read.status().ToString();
}

// WriteAtomic gathers the parts Serialize concatenates, so the file and the
// bytes the sweeps below see cannot diverge.
TEST_F(CheckpointTest, WriteAtomicWritesTheSerializedBytes) {
  const std::string path = Path("gathered.ckpt");
  const CheckpointWriter writer = SampleWriter();
  ASSERT_TRUE(writer.WriteAtomic(path).ok());
  EXPECT_EQ(ReadFile(path), writer.Serialize());
}

// Pins the DDCK layout: a part reordered, dropped or doubled changes the
// size or the CRC. Both values were recorded with the copying writer the
// gathering one replaced.
TEST_F(CheckpointTest, SerializedSampleMatchesRecordedLayout) {
  const std::string bytes = SampleWriter().Serialize();
  EXPECT_EQ(bytes.size(), 244u);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), 0x34B10238u);
}

// A write that fails part-way (here at the file-size limit, after a short
// write) returns IOError, removes its temp file and leaves the previous
// checkpoint byte for byte.
TEST_F(CheckpointTest, FailedWriteKeepsTheTargetAndLeavesNoTempFile) {
  const std::string path = Path("target.ckpt");
  ASSERT_TRUE(SampleWriter().WriteAtomic(path).ok());
  const std::string before = ReadFile(path);
  const std::vector<double> big(4096, 0.25);
  CheckpointWriter writer;
  writer.AddVector("big", big);
  util::Status status;
  {
    const testing::FileSizeLimit limit(big.size() * sizeof(double) / 2);
    ASSERT_TRUE(limit.active());
    status = writer.WriteAtomic(path);
  }
  EXPECT_EQ(status.code(), util::StatusCode::kIOError) << status.ToString();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(ReadFile(path), before);
}

// The crash-fault sweep: a write interrupted after byte k leaves a strict
// prefix. Every prefix (including the empty file) must parse as a clean
// error — never crash, never succeed.
TEST_F(CheckpointTest, EveryTruncationPointIsRejected) {
  const std::string bytes = SampleWriter().Serialize();
  for (size_t k = 0; k < bytes.size(); ++k) {
    auto parsed = CheckpointData::Parse(bytes.substr(0, k), "trunc");
    EXPECT_FALSE(parsed.ok()) << "prefix of " << k << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << "prefix of " << k << " bytes: " << parsed.status().ToString();
  }
}

// The bit-rot sweep: flipping any single byte anywhere — header, section
// name, size fields, payload, CRCs, footer — must be detected.
TEST_F(CheckpointTest, EverySingleByteCorruptionIsRejected) {
  const std::string bytes = SampleWriter().Serialize();
  for (size_t k = 0; k < bytes.size(); ++k) {
    std::string corrupted = bytes;
    corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
    auto parsed = CheckpointData::Parse(corrupted, "flip");
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << k << " parsed";
  }
  // Extra appended garbage is also rejected (a torn double-write).
  auto trailing = CheckpointData::Parse(bytes + "x", "trailing");
  EXPECT_FALSE(trailing.ok());
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
  return Checkpointer(
      options, ToyShape(),
      [state](CheckpointWriter& writer) { writer.AddPod("state", *state); },
      [state](const CheckpointData& data) {
        return data.ReadPod("state", state);
      });
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

TEST_F(CheckpointTest, KeepLastPrunesOldestCheckpoints) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.keep_last = 3;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);

  // Boundaries 1..9 wrote (the final boundary does not); 3 newest survive.
  const auto paths = ckpt.ListCheckpoints();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], ckpt.PathFor(9));
  EXPECT_EQ(paths[1], ckpt.PathFor(8));
  EXPECT_EQ(paths[2], ckpt.PathFor(7));
  EXPECT_FALSE(fs::exists(ckpt.PathFor(6)));
}

TEST_F(CheckpointTest, ZeroEpochCadenceDisablesWrites) {
  CheckpointOptions options = ToyOptions(dir_);
  options.policy.every_n_epochs = 0;
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer ckpt(ToyCheckpointer(options, &state));
  EXPECT_FALSE(ckpt.enabled());
  DriveEpochs(ckpt, &state, rng, 0, kToyEpochs);
  EXPECT_TRUE(ckpt.ListCheckpoints().empty());
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
  std::string bytes = ReadFile(writer.PathFor(2));
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFile(writer.PathFor(2), bytes);

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

  // A changed run shape (different budget) rejects every candidate.
  CheckpointOptions resumed = options;
  resumed.resume = true;
  RunShape other_shape = ToyShape();
  other_shape.total_steps *= 2;
  Checkpointer mismatched(
      resumed, other_shape,
      [&](CheckpointWriter& w) { w.AddPod("state", restored); },
      [&](const CheckpointData& d) { return d.ReadPod("state", &restored); });
  util::Rng r2(2);
  EXPECT_EQ(mismatched.Resume(r2), 0u);
  EXPECT_EQ(restored, 0u);
}

TEST_F(CheckpointTest, FailedTrainerLoadLeavesRngUntouched) {
  CheckpointOptions options = ToyOptions(dir_);
  uint64_t state = 0;
  util::Rng rng(1);
  Checkpointer writer(ToyCheckpointer(options, &state));
  DriveEpochs(writer, &state, rng, 0, 2);

  // A load callback that rejects every candidate: the caller's RNG must
  // keep its pre-resume stream (no partial restore).
  options.resume = true;
  Checkpointer rejecting(
      options, ToyShape(), [](CheckpointWriter&) {},
      [](const CheckpointData&) {
        return util::Status::InvalidArgument("wrong state layout");
      });
  util::Rng probe(99);
  util::Rng untouched(99);
  EXPECT_EQ(rejecting.Resume(probe), 0u);
  EXPECT_EQ(probe.Next(), untouched.Next());
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
  EXPECT_EQ(ckpt.ListCheckpoints().front(), ckpt.PathFor(4));
}

// --- Driver-level resume determinism on a toy trainer ------------------

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
      [&](CheckpointWriter& writer) { writer.AddVector("params", params); },
      [&](const CheckpointData& data) {
        return data.ReadVector("params", &params, kParams);
      });
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
