// Tests for out-of-core training: the DDSH shard store round-trip,
// every-length truncation and every-byte corruption sweeps over a sealed
// store, the bit-identity goldens (sharded nt=1 vs in-RAM, 1 shard vs 4
// shards, tiny-budget eviction churn), residency accounting, and the
// shard-affine Hogwild path.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/sharded_trainer.h"
#include "core/tie_index.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "graph/shard_format.h"
#include "ml/matrix.h"
#include "train/container.h"
#include "train/sharded_store.h"
#include "util/random.h"

namespace deepdirect::core {
namespace {

namespace fs = std::filesystem;

/// A clean store directory under /tmp (leftovers from a previous run are
/// removed so stale shard files can never satisfy an Open).
std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

graph::HiddenDirectionSplit MakeSplit(size_t num_nodes = 250,
                                      uint64_t seed = 5) {
  data::GeneratorConfig gen;
  gen.num_nodes = num_nodes;
  gen.ties_per_node = 3.5;
  gen.seed = seed;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(seed + 1);
  return graph::HideDirections(net, 0.4, rng);
}

DeepDirectConfig BaseConfig(size_t dimensions = 16, double epochs = 2.0) {
  DeepDirectConfig config;
  config.dimensions = dimensions;
  config.epochs = epochs;
  return config;
}

DeepDirectConfig ShardedConfig(const DeepDirectConfig& base, size_t shards,
                               const std::string& dir,
                               size_t ram_budget_mb = 256) {
  DeepDirectConfig config = base;
  config.sharding.num_shards = shards;
  config.sharding.dir = dir;
  config.sharding.ram_budget_mb = ram_budget_mb;
  return config;
}

/// Asserts two trained models agree bit-for-bit: classifier parameters,
/// D-step predictions on every closure arc, and discovery accuracy.
template <typename ModelA, typename ModelB>
void ExpectBitIdentical(const graph::HiddenDirectionSplit& split,
                        const ModelA& a, const ModelB& b) {
  EXPECT_EQ(a.e_step_weights(), b.e_step_weights());
  EXPECT_EQ(a.e_step_bias(), b.e_step_bias());
  const TieIndex idx(split.network);
  for (size_t e = 0; e < idx.num_arcs(); ++e) {
    const auto [u, v] = idx.ArcAt(e);
    ASSERT_EQ(a.Directionality(u, v), b.Directionality(u, v))
        << "divergence at arc " << e << " = (" << u << ", " << v << ")";
  }
  EXPECT_EQ(DirectionDiscoveryAccuracy(split, a),
            DirectionDiscoveryAccuracy(split, b));
}

TEST(ShardedTrainerTest, SingleThreadMatchesInRamBitIdentical) {
  const auto split = MakeSplit();
  const auto base = BaseConfig();
  const auto in_ram = DeepDirectModel::Train(split.network, base);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(base, 4, FreshDir("dd_shard_vs_inram")));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(split, *in_ram, *sharded.value());
}

TEST(ShardedTrainerTest, ShardCountDoesNotChangeTheModel) {
  const auto split = MakeSplit();
  const auto base = BaseConfig();
  auto one = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 1, FreshDir("dd_shard_one")));
  auto four = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 4, FreshDir("dd_shard_four")));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  EXPECT_EQ(one.value()->store().num_shards(), 1u);
  EXPECT_EQ(four.value()->store().num_shards(), 4u);
  ExpectBitIdentical(split, *one.value(), *four.value());
}

TEST(ShardedTrainerTest, TinyBudgetEvictsAndStaysBitIdentical) {
  // Big enough that M + N (~2.9 MB at l = 64) overflows a 1 MB budget, so
  // the serial run's global sampling churns shards through the LRU the
  // whole way — and the result must still match the in-RAM trainer.
  const auto split = MakeSplit(800, 7);
  const auto base = BaseConfig(64, 1.0);
  const auto in_ram = DeepDirectModel::Train(split.network, base);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(base, 8, FreshDir("dd_shard_tiny_budget"), 1));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectBitIdentical(split, *in_ram, *sharded.value());

  const auto stats = sharded.value()->store().GetStats();
  EXPECT_GT(stats.evictions, 0u) << "budget never forced an eviction";
  EXPECT_GE(stats.admissions, stats.evictions);
  EXPECT_LE(stats.resident_bytes, stats.max_resident_bytes);
  EXPECT_LE(stats.max_resident_bytes, stats.budget_bytes);
}

TEST(ShardedTrainerTest, HogwildShardedTrainsToSaneAccuracy) {
  const auto split = MakeSplit();
  auto base = BaseConfig();
  base.num_threads = 4;
  auto sharded = ShardedDeepDirectModel::Train(
      split.network, ShardedConfig(base, 4, FreshDir("dd_shard_hogwild")));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (const double w : sharded.value()->e_step_weights()) {
    ASSERT_TRUE(std::isfinite(w));
  }
  const double accuracy =
      DirectionDiscoveryAccuracy(split, *sharded.value());
  EXPECT_GT(accuracy, 0.5);  // must beat a coin flip
  EXPECT_LE(accuracy, 1.0);
}

TEST(ShardedTrainerTest, RejectsUnsupportedConfigs) {
  const auto split = MakeSplit(60, 11);
  const auto base = BaseConfig(4, 0.5);

  auto no_sharding = ShardedDeepDirectModel::Train(split.network, base);
  EXPECT_FALSE(no_sharding.ok());
  EXPECT_EQ(no_sharding.status().code(),
            util::StatusCode::kInvalidArgument);

  auto with_checkpoint = ShardedConfig(base, 2, FreshDir("dd_shard_ckpt"));
  with_checkpoint.checkpoint.dir = "/tmp/dd_shard_ckpt_dir";
  auto checkpointed =
      ShardedDeepDirectModel::Train(split.network, with_checkpoint);
  EXPECT_FALSE(checkpointed.ok());
  EXPECT_EQ(checkpointed.status().code(),
            util::StatusCode::kInvalidArgument);

  auto with_mlp = ShardedConfig(base, 2, FreshDir("dd_shard_mlp"));
  with_mlp.d_step_head = DStepHead::kMlp;
  auto mlp = ShardedDeepDirectModel::Train(split.network, with_mlp);
  EXPECT_FALSE(mlp.ok());
  EXPECT_EQ(mlp.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ShardedTrainerTest, UnknownTieIsNotFound) {
  const auto split = MakeSplit(60, 11);
  auto sharded = ShardedDeepDirectModel::Train(
      split.network,
      ShardedConfig(BaseConfig(4, 0.5), 2, FreshDir("dd_shard_unknown")));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const TieIndex idx(split.network);
  for (graph::NodeId u = 0; u < idx.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < idx.num_nodes(); ++v) {
      if (u == v || idx.TryIndexOf(u, v) != idx.num_arcs()) continue;
      auto result = sharded.value()->TryDirectionality(u, v);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
      return;  // one unknown pair is enough
    }
  }
  ADD_FAILURE() << "fixture network is a complete digraph";
}

// ----------------------------------------------------------------------
// Store lifecycle and fault injection. The fixture is deliberately tiny
// (60 nodes, l = 4) so the every-byte sweeps stay fast under sanitizers.
// ----------------------------------------------------------------------

/// Deletes a per-process fixture directory when the process exits.
struct RemoveAllAtExit {
  std::string dir;
  ~RemoveAllAtExit() {
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

/// Trains a tiny sharded model once per process and shares its sealed store
/// directory with every fault-injection test (each test works on copies).
/// ctest runs every TEST in its own process and each one retrains this
/// fixture, so the directory name carries the pid.
const std::string& TinySealedStoreDir() {
  static const std::string* dir = [] {
    auto* path = new std::string(
        FreshDir("dd_shard_tiny_store_" + std::to_string(::getpid())));
    const auto split = MakeSplit(60, 11);
    auto sharded = ShardedDeepDirectModel::Train(
        split.network, ShardedConfig(BaseConfig(4, 0.5), 2, *path));
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return path;
  }();
  static const RemoveAllAtExit cleanup{*dir};
  return *dir;
}

std::vector<std::string> StoreFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Copies the tiny sealed store into a scratch directory the test may
/// mutilate freely.
std::string CopyStore(const std::string& name) {
  const std::string src = TinySealedStoreDir();
  const std::string dst = FreshDir(name);
  fs::create_directories(dst);
  for (const auto& file : StoreFiles(src)) {
    fs::copy_file(src + "/" + file, dst + "/" + file);
  }
  return dst;
}

TEST(ShardedStoreTest, SealedStoreReopensWithSameGeometryAndRows) {
  const std::string dir = TinySealedStoreDir();
  auto reopened = train::ShardedStore::Open(dir, 256);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  train::ShardedStore& store = *reopened.value();
  EXPECT_EQ(store.num_shards(), 2u);
  EXPECT_EQ(store.dimensions(), 4u);
  EXPECT_GT(store.num_arcs(), 0u);

  auto again = train::ShardedStore::Open(dir, 256);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (size_t e = 0; e < store.num_arcs(); ++e) {
    const auto row = store.EmbRow(e);
    const auto other = again.value()->EmbRow(e);
    ASSERT_EQ(0, std::memcmp(row.data(), other.data(),
                             row.size() * sizeof(float)))
        << "emb row " << e << " differs between two opens";
  }
}

TEST(ShardedStoreTest, LayoutIsOneGraphFilePlusOneFilePerShard) {
  const auto files = StoreFiles(TinySealedStoreDir());
  EXPECT_EQ(files,
            (std::vector<std::string>{"graph.dds", "shard-0000.dds",
                                      "shard-0001.dds"}));
}

TEST(ShardedStoreTest, TruncationSweepEveryLengthNeverOpens) {
  const std::string dir = CopyStore("dd_shard_trunc");
  for (const auto& file : StoreFiles(dir)) {
    const std::string path = dir + "/" + file;
    const std::string pristine = ReadFile(path);
    ASSERT_FALSE(pristine.empty());
    for (size_t len = 0; len < pristine.size(); ++len) {
      WriteFile(path, pristine.substr(0, len));
      auto opened = train::ShardedStore::Open(dir, 256);
      ASSERT_FALSE(opened.ok())
          << file << " truncated to " << len << " bytes still opened";
    }
    WriteFile(path, pristine);  // restore for the next file's sweep
  }
}

TEST(ShardedStoreTest, CorruptionSweepEveryByteNeverOpens) {
  const std::string dir = CopyStore("dd_shard_corrupt");
  for (const auto& file : StoreFiles(dir)) {
    const std::string path = dir + "/" + file;
    const std::string pristine = ReadFile(path);
    ASSERT_FALSE(pristine.empty());
    std::string corrupted = pristine;
    for (size_t k = 0; k < pristine.size(); ++k) {
      corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
      WriteFile(path, corrupted);
      auto opened = train::ShardedStore::Open(dir, 256);
      ASSERT_FALSE(opened.ok())
          << file << " byte " << k << " corrupted but the store opened";
      corrupted[k] = pristine[k];
    }
    WriteFile(path, pristine);
  }
}

TEST(ShardedStoreTest, MissingShardFileNeverOpens) {
  const std::string dir = CopyStore("dd_shard_missing");
  fs::remove(dir + "/shard-0001.dds");
  auto opened = train::ShardedStore::Open(dir, 256);
  EXPECT_FALSE(opened.ok());
}

/// Rewrites one store file: `edit` changes its section payloads, then the
/// file is laid out again and sealed with consistent CRCs.
void Reforge(const std::string& path, const train::container::Format& format,
             const std::function<void(std::vector<std::string>&)>& edit) {
  const std::string bytes = ReadFile(path);
  auto read =
      train::container::Reader::Open(format, path, bytes.data(), bytes.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  std::vector<std::string> sections;
  for (size_t i = 0; i < format.sections.size(); ++i) {
    const auto section = read.value().Array<char>(i);
    sections.emplace_back(section.data(), section.size());
  }
  edit(sections);
  std::vector<train::container::Payload> payloads;
  for (const std::string& section : sections) {
    payloads.push_back({section.data(), section.size()});
  }
  ASSERT_TRUE(train::container::WriteFile(format, payloads, path).ok());
}

/// Applies `edit` to the meta struct held in `section`.
template <typename Meta, typename Edit>
void EditMeta(std::string& section, Edit edit) {
  Meta meta;
  ASSERT_EQ(section.size(), sizeof(meta));
  std::memcpy(&meta, section.data(), sizeof(meta));
  edit(meta);
  std::memcpy(section.data(), &meta, sizeof(meta));
}

TEST(ShardedStoreTest, WrappingSectionSizesAreRejected) {
  namespace shard = graph::shard;
  // Each forged store has consistent CRCs, so only the checked size
  // arithmetic can reject it.
  {
    // arcs x 2^62 x 4 wraps to 0, which empty emb and conn sections match.
    const std::string dir = CopyStore("dd_shard_wrap_dims");
    const uint64_t dims = uint64_t{1} << 62;
    Reforge(dir + "/graph.dds", shard::kGraphFormat, [&](auto& sections) {
      EditMeta<shard::GraphMeta>(
          sections[0], [&](shard::GraphMeta& m) { m.dimensions = dims; });
    });
    for (const char* file : {"shard-0000.dds", "shard-0001.dds"}) {
      Reforge(dir + "/" + file, shard::kShardFormat, [&](auto& sections) {
        EditMeta<shard::ShardMeta>(
            sections[0], [&](shard::ShardMeta& m) { m.dimensions = dims; });
        sections[6].clear();
        sections[7].clear();
      });
    }
    auto opened = train::ShardedStore::Open(dir, 256);
    ASSERT_FALSE(opened.ok())
        << "opened with dimensions " << opened.value()->dimensions();
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("'dimensions'"),
              std::string::npos)
        << opened.status().ToString();
  }
  {
    // (num_nodes + 1) x 8 wraps to a 64-byte offsets section; reading the
    // CSR behind it would run past the end of the mapping.
    const std::string dir = CopyStore("dd_shard_wrap_nodes");
    Reforge(dir + "/graph.dds", shard::kGraphFormat, [](auto& sections) {
      EditMeta<shard::GraphMeta>(sections[0], [](shard::GraphMeta& m) {
        m.num_nodes = (uint64_t{1} << 61) + 7;
      });
      sections[1].resize(64);
    });
    auto opened = train::ShardedStore::Open(dir, 256);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("'num_nodes'"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_EQ(opened.status().message().find("CSR"), std::string::npos)
        << opened.status().ToString();
  }
}

TEST(ShardedStoreTest, UnsealedStoreIsRejected) {
  const auto split = MakeSplit(60, 11);
  const TieIndex idx(split.network);
  DeepDirectConfig config = BaseConfig(4, 0.5);
  const PatternPrecompute patterns =
      PrecomputePatterns(split.network, idx, config);

  train::ShardedStoreInit init;
  init.offsets = idx.Offsets();
  init.adjacency = {
      reinterpret_cast<const uint32_t*>(idx.Adjacency().data()),
      idx.Adjacency().size()};
  init.sources = {reinterpret_cast<const uint32_t*>(idx.Sources().data()),
                  idx.Sources().size()};
  init.classes = {
      reinterpret_cast<const uint8_t*>(idx.RawClasses().data()),
      idx.RawClasses().size()};
  init.num_connected_pairs = idx.NumConnectedTiePairs();
  init.arc_hash = HashTieIndex(idx);
  init.dimensions = config.dimensions;
  init.slot = patterns.slot;
  init.degree_pseudo_label = patterns.degree_pseudo_label;
  init.degree_active = patterns.degree_active;
  init.triad_offsets = patterns.triad_offsets;
  init.triad_pairs = {reinterpret_cast<const graph::shard::TriadPair*>(
                          patterns.triad_pairs.data()),
                      patterns.triad_pairs.size()};

  train::ShardedStoreOptions options;
  options.dir = FreshDir("dd_shard_unsealed");
  options.num_shards = 2;
  util::Rng rng(3);
  {
    auto created =
        train::ShardedStore::Create(options, init, rng, -0.125f, 0.125f);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    // Dropped without Seal(): the shard files stay live/unsealed.
  }
  auto opened = train::ShardedStore::Open(options.dir, 256);
  EXPECT_FALSE(opened.ok())
      << "an unsealed (mid-training) store must not validate";
}

TEST(ShardedStoreTest, CreateFillsEmbeddingsInFillUniformOrder) {
  // The store's init fill must consume the Rng exactly like
  // ml::Matrix::FillUniform — the first leg of the bit-identity contract.
  const auto split = MakeSplit(60, 11);
  const TieIndex idx(split.network);
  DeepDirectConfig config = BaseConfig(4, 0.5);
  const PatternPrecompute patterns =
      PrecomputePatterns(split.network, idx, config);

  train::ShardedStoreInit init;
  init.offsets = idx.Offsets();
  init.adjacency = {
      reinterpret_cast<const uint32_t*>(idx.Adjacency().data()),
      idx.Adjacency().size()};
  init.sources = {reinterpret_cast<const uint32_t*>(idx.Sources().data()),
                  idx.Sources().size()};
  init.classes = {
      reinterpret_cast<const uint8_t*>(idx.RawClasses().data()),
      idx.RawClasses().size()};
  init.num_connected_pairs = idx.NumConnectedTiePairs();
  init.arc_hash = HashTieIndex(idx);
  init.dimensions = config.dimensions;
  init.slot = patterns.slot;
  init.degree_pseudo_label = patterns.degree_pseudo_label;
  init.degree_active = patterns.degree_active;
  init.triad_offsets = patterns.triad_offsets;
  init.triad_pairs = {reinterpret_cast<const graph::shard::TriadPair*>(
                          patterns.triad_pairs.data()),
                      patterns.triad_pairs.size()};

  train::ShardedStoreOptions options;
  options.dir = FreshDir("dd_shard_fill");
  options.num_shards = 3;
  util::Rng store_rng(17);
  auto created = train::ShardedStore::Create(options, init, store_rng,
                                             -0.125f, 0.125f);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  ml::Matrix reference(idx.num_arcs(), config.dimensions);
  util::Rng matrix_rng(17);
  reference.FillUniform(matrix_rng, -0.125f, 0.125f);
  for (size_t e = 0; e < idx.num_arcs(); ++e) {
    const auto row = created.value()->EmbRow(e);
    for (size_t j = 0; j < row.size(); ++j) {
      ASSERT_EQ(row[j], reference.Row(e)[j])
          << "fill order diverges at arc " << e << " dim " << j;
    }
  }
}

}  // namespace
}  // namespace deepdirect::core
