// Tests for the serving layer: DDS1 export/open, golden parity against the
// in-memory model, the hot-tie cache, fault injection over the servable
// file, the unknown-tie contract, the serve-loop protocol and its value
// renderer, and concurrent readers (the *Concurrent* and ServeLoopTest
// tests run under TSan and ASan via scripts/check_sanitizers.sh).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deepdirect.h"
#include "core/servable_format.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "serve/mmap_file.h"
#include "serve/servable_model.h"
#include "serve/server.h"
#include "serve/tie_cache.h"
#include "train/container.h"
#include "util/random.h"

namespace deepdirect::serve {
namespace {

namespace fmt = core::servable;
namespace container = train::container;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A trained model, its exported servable file, and the file's raw bytes.
struct Exported {
  std::unique_ptr<core::DeepDirectModel> model;
  std::string path;
  std::string bytes;
};

Exported Train(size_t num_nodes, size_t dimensions, double epochs,
               const std::string& path, uint64_t seed = 5) {
  data::GeneratorConfig gen;
  gen.num_nodes = num_nodes;
  gen.ties_per_node = 3.5;
  gen.seed = seed;
  const auto net = data::GenerateStatusNetwork(gen);
  util::Rng rng(seed + 1);
  const auto split = graph::HideDirections(net, 0.4, rng);
  core::DeepDirectConfig config;
  config.dimensions = dimensions;
  config.epochs = epochs;
  Exported out;
  out.model = core::DeepDirectModel::Train(split.network, config);
  out.path = path;
  EXPECT_TRUE(out.model->ExportServable(path).ok());
  out.bytes = ReadFile(path);
  return out;
}

/// A fixture file path of this process. ctest runs every TEST in its own
/// process and each one rebuilds the shared fixtures, so concurrent
/// processes must not write one file.
std::string ProcessPath(const std::string& stem) {
  return "/tmp/" + stem + "_" + std::to_string(::getpid()) + ".dds";
}

/// Deletes a per-process fixture file when the process exits.
struct RemoveAtExit {
  std::string path;
  ~RemoveAtExit() { std::remove(path.c_str()); }
};

/// The parity fixture: trained once per process, shared by every test that
/// only reads it.
const Exported& Parity() {
  static const Exported* cached = new Exported(
      Train(120, 8, 2.0, ProcessPath("deepdirect_serve_parity")));
  static const RemoveAtExit cleanup{cached->path};
  return *cached;
}

/// A deliberately tiny second model so the every-byte fault-injection
/// sweeps stay fast even under sanitizers.
const Exported& Tiny() {
  static const Exported* cached = new Exported(
      Train(60, 4, 1.0, ProcessPath("deepdirect_serve_tiny"), 11));
  static const RemoveAtExit cleanup{cached->path};
  return *cached;
}

std::vector<TiePair> AllTies(const core::DeepDirectModel& model) {
  std::vector<TiePair> ties;
  ties.reserve(model.index().num_arcs());
  for (size_t e = 0; e < model.index().num_arcs(); ++e) {
    const auto [u, v] = model.index().ArcAt(e);
    ties.push_back({u, v});
  }
  return ties;
}

/// A pair of in-range nodes with no closure arc between them.
TiePair UnknownTie(const core::DeepDirectModel& model) {
  const auto& index = model.index();
  for (graph::NodeId u = 0; u < index.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < index.num_nodes(); ++v) {
      if (u != v && index.TryIndexOf(u, v) == index.num_arcs()) {
        return {u, v};
      }
    }
  }
  ADD_FAILURE() << "fixture network is a complete digraph";
  return {0, 0};
}

TEST(ServableModelTest, OpenReadsBackTheModelShape) {
  const Exported& fixture = Parity();
  auto opened = ServableModel::Open(fixture.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ServableModel& servable = opened.value();
  EXPECT_EQ(servable.num_nodes(), fixture.model->index().num_nodes());
  EXPECT_EQ(servable.num_arcs(), fixture.model->index().num_arcs());
  // No temp file left behind by the atomic export.
  std::ifstream tmp(fixture.path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind";
}

TEST(ServableModelTest, RawLayoutIsCanonical) {
  // Pin the on-disk invariants the mmap reader relies on: magic, exact
  // file size in the header, and 64-byte alignment of every payload.
  const std::string& bytes = Parity().bytes;
  ASSERT_GE(bytes.size(), sizeof(container::Header));
  container::Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(std::memcmp(header.magic, fmt::kMagic.data(), 4), 0);
  EXPECT_EQ(header.version, fmt::kVersion);
  EXPECT_EQ(header.section_count, fmt::kSectionCount);
  EXPECT_EQ(header.file_size, bytes.size());
  for (uint64_t s = 0; s < fmt::kSectionCount; ++s) {
    container::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(container::Header) +
                            s * sizeof(container::SectionEntry),
                sizeof(entry));
    EXPECT_STREQ(entry.name, fmt::kSectionOrder[s]);
    EXPECT_EQ(entry.offset % container::kAlignment, 0u)
        << "section " << entry.name << " is misaligned";
  }
}

TEST(ServableModelTest, GoldenParityScalarEveryTie) {
  const Exported& fixture = Parity();
  auto opened = ServableModel::Open(fixture.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ServableModel& servable = opened.value();
  for (const TiePair& tie : AllTies(*fixture.model)) {
    const auto got = servable.Query(tie.u, tie.v);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Exact: the servable scorer replicates the in-memory accumulation
    // bit for bit, not approximately.
    EXPECT_EQ(got.value(), fixture.model->Directionality(tie.u, tie.v))
        << "tie (" << tie.u << ", " << tie.v << ")";
  }
}

TEST(ServableModelTest, GoldenParityBatchColdWarmAndEvicting) {
  const Exported& fixture = Parity();
  const std::vector<TiePair> ties = AllTies(*fixture.model);
  std::vector<double> expected;
  expected.reserve(ties.size());
  for (const TiePair& tie : ties) {
    expected.push_back(fixture.model->Directionality(tie.u, tie.v));
  }

  // Three cache regimes: disabled, all-hits after warmup, and constantly
  // evicting. The answers must be identical in all of them.
  for (const size_t capacity : {size_t{0}, ties.size(), size_t{8}}) {
    ServeOptions options;
    options.cache_capacity = capacity;
    auto opened = ServableModel::Open(fixture.path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const ServableModel& servable = opened.value();
    std::vector<double> got(ties.size(), 0.0);
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE(servable.QueryBatch(ties, got).ok());
      for (size_t i = 0; i < ties.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "capacity " << capacity << " pass " << pass << " tie ("
            << ties[i].u << ", " << ties[i].v << ")";
      }
    }
  }
}

TEST(ServableModelTest, CacheCountersTrackColdWarmEvicting) {
  const Exported& fixture = Parity();
  const std::vector<TiePair> ties = AllTies(*fixture.model);
  std::vector<double> out(ties.size(), 0.0);

  // Roomy cache (8 slots per tie, so set-conflict evictions are
  // vanishingly unlikely): the first pass is all misses, the second all
  // hits.
  ServeOptions roomy;
  roomy.cache_capacity = 8 * ties.size();
  auto opened = ServableModel::Open(fixture.path, roomy);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened.value().QueryBatch(ties, out).ok());
  TieCacheStats stats = opened.value().CacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, ties.size());
  EXPECT_EQ(stats.evictions, 0u);
  ASSERT_TRUE(opened.value().QueryBatch(ties, out).ok());
  stats = opened.value().CacheStats();
  EXPECT_EQ(stats.hits, ties.size());
  EXPECT_EQ(stats.misses, ties.size());
  EXPECT_EQ(stats.evictions, 0u);

  // Tiny cache: a sweep larger than capacity must evict.
  ServeOptions tiny;
  tiny.cache_capacity = 8;
  auto evicting = ServableModel::Open(fixture.path, tiny);
  ASSERT_TRUE(evicting.ok());
  ASSERT_TRUE(evicting.value().QueryBatch(ties, out).ok());
  ASSERT_TRUE(evicting.value().QueryBatch(ties, out).ok());
  stats = evicting.value().CacheStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GE(stats.capacity, 8u);

  // Disabled cache: nothing is counted at all.
  ServeOptions off;
  off.cache_capacity = 0;
  auto disabled = ServableModel::Open(fixture.path, off);
  ASSERT_TRUE(disabled.ok());
  ASSERT_TRUE(disabled.value().QueryBatch(ties, out).ok());
  stats = disabled.value().CacheStats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0u);
  EXPECT_EQ(stats.capacity, 0u);
}

TEST(ServableModelTest, LruEvictsColdKeysKeepsHotKeys) {
  // Direct cache-policy check on one full 4-way set: a key that was hit
  // since insertion is spared by the second-chance clock, and the first
  // never-referenced key is the one evicted.
  ShardedTieCache cache(/*capacity=*/4, /*ways=*/4);
  cache.Insert(1, 0.1);
  cache.Insert(2, 0.2);
  cache.Insert(3, 0.3);
  cache.Insert(4, 0.4);
  double value = 0.0;
  ASSERT_TRUE(cache.Lookup(1, &value));  // marks key 1 recently used
  cache.Insert(5, 0.5);  // spares 1 (referenced), evicts 2 (cold)
  EXPECT_TRUE(cache.Lookup(1, &value));
  EXPECT_EQ(value, 0.1);
  EXPECT_FALSE(cache.Lookup(2, &value));
  EXPECT_TRUE(cache.Lookup(3, &value));
  EXPECT_TRUE(cache.Lookup(4, &value));
  EXPECT_TRUE(cache.Lookup(5, &value));
  EXPECT_EQ(value, 0.5);
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ServableModelTest, UnknownTieContract) {
  const Exported& fixture = Parity();
  auto opened = ServableModel::Open(fixture.path);
  ASSERT_TRUE(opened.ok());
  const ServableModel& servable = opened.value();
  const TiePair unknown = UnknownTie(*fixture.model);

  // Scalar: a typed not-found, in range or out of range.
  EXPECT_EQ(servable.Query(unknown.u, unknown.v).status().code(),
            util::StatusCode::kNotFound);
  const auto out_of_range =
      servable.Query(static_cast<graph::NodeId>(servable.num_nodes()) + 7, 0);
  EXPECT_EQ(out_of_range.status().code(), util::StatusCode::kNotFound);

  // Batch under kError: the batch fails, naming the offending item.
  const TiePair known = AllTies(*fixture.model).front();
  const std::vector<TiePair> ties = {known, unknown, known};
  std::vector<double> out(ties.size(), 0.0);
  const auto failed = servable.QueryBatch(ties, out, MissingPolicy::kError);
  EXPECT_EQ(failed.code(), util::StatusCode::kNotFound);

  // Batch under kNan: the unknown slot is NaN, the known slots exact.
  ASSERT_TRUE(servable.QueryBatch(ties, out, MissingPolicy::kNan).ok());
  const double expected = fixture.model->Directionality(known.u, known.v);
  EXPECT_EQ(out[0], expected);
  EXPECT_TRUE(std::isnan(out[1]));
  EXPECT_EQ(out[2], expected);

  // Mismatched spans are a typed error, not a crash.
  std::vector<double> short_out(1, 0.0);
  EXPECT_EQ(servable.QueryBatch(ties, short_out).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(ServableModelTest, TryDirectionalityMatchesTheServingContract) {
  // The in-memory model exposes the same typed unknown-tie contract the
  // serving path has, instead of undefined behavior on a bad pair.
  const Exported& fixture = Parity();
  const core::DeepDirectModel& model = *fixture.model;
  const TiePair known = AllTies(model).front();
  const auto ok = model.TryDirectionality(known.u, known.v);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), model.Directionality(known.u, known.v));

  const TiePair unknown = UnknownTie(model);
  EXPECT_EQ(model.TryDirectionality(unknown.u, unknown.v).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(model
                .TryDirectionality(
                    static_cast<graph::NodeId>(model.index().num_nodes()), 0)
                .status()
                .code(),
            util::StatusCode::kNotFound);
}

TEST(ServableModelTest, MissingFileReportsIOError) {
  auto opened = ServableModel::Open("/nonexistent/model.dds");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kIOError);
}

TEST(ServableModelTest, TruncationSweepEveryLengthNeverOpens) {
  // A servable file cut after ANY byte count must be rejected cleanly.
  const Exported& fixture = Tiny();
  const std::string path = "/tmp/deepdirect_serve_trunc.dds";
  ASSERT_GT(fixture.bytes.size(), 0u);
  for (size_t cut = 0; cut < fixture.bytes.size(); ++cut) {
    WriteFile(path, fixture.bytes.substr(0, cut));
    auto opened = ServableModel::Open(path);
    ASSERT_FALSE(opened.ok()) << "prefix of " << cut << " bytes opened";
    ASSERT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument)
        << "prefix of " << cut << ": " << opened.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(ServableModelTest, CorruptionSweepEveryByteNeverOpens) {
  // Flip every single byte of the file in turn: each flip must be caught
  // by the meta CRC (header/table), a section CRC (payloads), or the
  // zero-padding check (alignment gaps) — no byte is uncovered.
  const Exported& fixture = Tiny();
  const std::string path = "/tmp/deepdirect_serve_flip.dds";
  for (size_t k = 0; k < fixture.bytes.size(); ++k) {
    std::string corrupted = fixture.bytes;
    corrupted[k] = static_cast<char>(corrupted[k] ^ 0x5A);
    WriteFile(path, corrupted);
    auto opened = ServableModel::Open(path);
    ASSERT_FALSE(opened.ok()) << "flip at byte " << k << " opened";
    ASSERT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument)
        << "flip at byte " << k << ": " << opened.status().ToString();
  }
  std::remove(path.c_str());
}

/// Writes a DDS1 file over 3 nodes with the given meta arc count, CSR
/// destinations and scores, with every CRC consistent, and opens it.
util::Result<ServableModel> OpenForged(uint64_t num_arcs,
                                       const std::vector<uint32_t>& adj,
                                       const std::vector<double>& scores) {
  fmt::Meta meta{};
  meta.num_nodes = 3;
  meta.num_arcs = num_arcs;
  // Node 0's row holds every destination.
  const uint64_t offsets[4] = {0, adj.size(), adj.size(), adj.size()};
  const container::Payload payloads[fmt::kSectionCount] = {
      {&meta, sizeof(meta)},
      {offsets, sizeof(offsets)},
      {adj.data(), adj.size() * sizeof(uint32_t)},
      {scores.data(), scores.size() * sizeof(double)},
  };
  const std::string path = ProcessPath("deepdirect_serve_forged");
  const RemoveAtExit cleanup{path};
  const util::Status written =
      container::WriteFile(fmt::kFormat, payloads, path);
  if (!written.ok()) return written;
  return ServableModel::Open(path);
}

TEST(ServableModelTest, WrappingArcCountIsRejected) {
  // num_arcs = 2^62 + 1 wraps num_arcs x 4 to the one-destination adj
  // section and num_arcs x 8 to the one-score scores section the file
  // carries, and the CSR and the score are valid: only the checked size
  // arithmetic can reject it. At 2^61 + 1 only num_arcs x 8 wraps.
  struct Case {
    uint64_t num_arcs;
    std::vector<uint32_t> adj;
  };
  for (const Case& c : {Case{(uint64_t{1} << 62) + 1, {1}},
                        Case{(uint64_t{1} << 61) + 1, {}}}) {
    auto opened = OpenForged(c.num_arcs, c.adj, {0.5});
    ASSERT_FALSE(opened.ok()) << "opened with num_arcs "
                              << opened.value().num_arcs();
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("'num_arcs'"), std::string::npos)
        << opened.status().ToString();
  }
}

TEST(ServableModelTest, OutOfRangeScoresAreRejected) {
  // A score that is NaN would serve as NA, the answer for an unknown tie;
  // the reader rejects every score outside [+0, 1] (−0.0 too, which would
  // print with a sign), naming the first bad arc. Arc 0 holds a valid
  // score, so the named arc is 1.
  using Limits = std::numeric_limits<double>;
  for (const double bad : {Limits::quiet_NaN(), -0.5, 1.5,
                           Limits::infinity(), -Limits::infinity(), -0.0}) {
    auto opened = OpenForged(3, {0, 1, 2}, {0.25, bad, bad});
    ASSERT_FALSE(opened.ok()) << "opened with score " << bad;
    EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("score of arc 1 "),
              std::string::npos)
        << opened.status().ToString();
  }
  for (const double edge : {0.0, 1.0}) {
    auto opened = OpenForged(2, {1, 2}, {edge, 0.5});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const auto got = opened.value().Query(0, 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), edge);
  }
}

TEST(ServableModelTest, VersionOneFileIsRejected) {
  // A file in the version 1 layout (embedding matrix and D-Step head in
  // place of scores) with every CRC consistent fails on its version.
  static constexpr const char* kVersionOneSections[] = {
      "meta", "offsets", "adj", "embeddings", "dstep_w", "dstep_b",
  };
  const container::Format version_one{fmt::kMagic, 1, 0, kVersionOneSections};
  // num_nodes, num_arcs, dimensions, arc_hash.
  const uint64_t meta[4] = {3, 1, 2, 0};
  const uint64_t offsets[4] = {0, 1, 1, 1};
  const uint32_t adj[1] = {1};
  const float embeddings[2] = {0.5f, -0.5f};
  const double weights[2] = {0.25, 0.75};
  const double bias = 0.125;
  const container::Payload payloads[6] = {
      {meta, sizeof(meta)},       {offsets, sizeof(offsets)},
      {adj, sizeof(adj)},         {embeddings, sizeof(embeddings)},
      {weights, sizeof(weights)}, {&bias, sizeof(bias)},
  };
  const std::string path = ProcessPath("deepdirect_serve_v1");
  const RemoveAtExit cleanup{path};
  ASSERT_TRUE(container::WriteFile(version_one, payloads, path).ok());
  auto opened = ServableModel::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("unsupported version 1"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(ServeLoopTest, ProtocolAnswersMatchesAndSurvivesGarbage) {
  const Exported& fixture = Parity();
  auto opened = ServableModel::Open(fixture.path);
  ASSERT_TRUE(opened.ok());
  const ServableModel& servable = opened.value();
  const TiePair known = AllTies(*fixture.model).front();
  const TiePair unknown = UnknownTie(*fixture.model);

  std::ostringstream request;
  request << known.u << ' ' << known.v << '\n'                       // scalar
          << known.u << ' ' << known.v << ' ' << unknown.u << ' '
          << unknown.v << '\n'                                       // batch
          << "stats\n"
          << "not-a-number 3\n"                                      // ERR
          << "1 2 3\n"                                               // ERR
          << "\n"                                                    // blank
          << "quit\n"
          << "9 9\n";  // after quit: must not be processed
  std::istringstream in(request.str());
  std::ostringstream out;
  const ServeLoopStats stats = RunServeLoop(servable, in, out);
  EXPECT_EQ(stats.lines, 6u);  // blank line and post-quit line don't count
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.errors, 2u);

  char expected[32];
  std::snprintf(expected, sizeof(expected), "%.6f",
                fixture.model->Directionality(known.u, known.v));
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, expected);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, std::string(expected) + " NA");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("stats hits=", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ERR parse", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ERR parse", 0), 0u) << line;
  EXPECT_FALSE(std::getline(lines, line)) << "output after quit: " << line;
}

/// `value` as printf("%.6f") renders it, the reference for the wire format.
std::string Printf6(double value) {
  char buffer[kMaxValueChars + 1];
  const int n = std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return std::string(buffer, static_cast<size_t>(n));
}

TEST(ServeLoopTest, EdgeCasesAnswerByteForByte) {
  // Pins the protocol's edge cases byte for byte. Each row runs its own
  // loop over a freshly opened model, so the stats row's counters are
  // exact.
  const Exported& fixture = Parity();
  const TiePair known = AllTies(*fixture.model).front();
  const std::string u = std::to_string(known.u);
  const std::string v = std::to_string(known.v);
  const std::string k = u + ' ' + v;
  const std::string d =
      Printf6(fixture.model->Directionality(known.u, known.v));
  const auto not_an_id = [](const std::string& token) {
    return "ERR parse: token '" + token +
           "' is not a node id (expected pairs of node ids, 'stats', or "
           "'quit')\n";
  };
  const std::string odd =
      "ERR parse: odd token count (queries are u v pairs)\n";
  std::string long_request;
  std::string long_response;
  for (int i = 0; i < 300; ++i) {
    long_request += k + (i + 1 < 300 ? ' ' : '\n');
    long_response += d + (i + 1 < 300 ? ' ' : '\n');
  }

  struct Row {
    std::string name;
    std::string request;
    std::string response;
    ServeLoopStats stats;  // lines, queries, errors
  };
  const std::vector<Row> rows = {
      {"CRLF line endings", k + "\r\n" + k + ' ' + k + "\r\n",
       d + '\n' + d + ' ' + d + '\n', {2, 3, 0}},
      {"tabs and runs of spaces", "\t " + u + " \t  " + v + "  \t\n",
       d + '\n', {1, 1, 0}},
      {"vertical tab and form feed", u + '\v' + v + "\f\n", d + '\n',
       {1, 1, 0}},
      {"blank and whitespace-only lines are skipped",
       "\n \t \r\n\v\f\n" + k + '\n', d + '\n', {1, 1, 0}},
      {"last line without a newline", k, d + '\n', {1, 1, 0}},
      {"a long batch, then a short one", long_request + k + '\n',
       long_response + d + '\n', {2, 301, 0}},
      {"stats with arguments", "stats 1 2\n",
       "stats hits=0 misses=0 evictions=0 capacity=0\n", {1, 0, 0}},
      {"largest node id", "4294967295 4294967295\n", "NA\n", {1, 1, 0}},
      {"node id past 32 bits", "4294967296 1\n", not_an_id("4294967296"),
       {1, 0, 1}},
      {"11-digit token", "00000000001 1\n", not_an_id("00000000001"),
       {1, 0, 1}},
      {"signed token", "+1 2\n", not_an_id("+1"), {1, 0, 1}},
      {"the first bad token is named", k + " x y\n", not_an_id("x"),
       {1, 0, 1}},
      {"NUL and non-ASCII bytes are not whitespace",
       std::string("1\0 2\n", 5) + u + "\xa0" + v + '\n',
       not_an_id(std::string("1\0", 2)) + not_an_id(u + "\xa0" + v),
       {2, 0, 2}},
      {"stats and quit only as the first token",
       k + " stats\n" + u + " quit\n", not_an_id("stats") + not_an_id("quit"),
       {2, 0, 2}},
      {"odd token count", k + " 7\n" + u + '\n', odd + odd, {2, 0, 2}},
      {"quit with arguments ends the loop", "quit now\n" + k + '\n', "",
       {1, 0, 0}},
  };
  for (const Row& row : rows) {
    auto opened = ServableModel::Open(fixture.path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::istringstream in(row.request);
    std::ostringstream out;
    const ServeLoopStats stats = RunServeLoop(opened.value(), in, out);
    EXPECT_EQ(out.str(), row.response) << row.name;
    EXPECT_EQ(stats.lines, row.stats.lines) << row.name;
    EXPECT_EQ(stats.queries, row.stats.queries) << row.name;
    EXPECT_EQ(stats.errors, row.stats.errors) << row.name;
  }
}

TEST(ServeLoopTest, QueryLatencyRecordedOnlyWhenTelemetryIsOn) {
  // With telemetry on, each query line records one serve.query.seconds
  // observation and the stats and malformed lines record none; with it
  // off, nothing is recorded. The responses are the same bytes either way.
  const Exported& fixture = Parity();
  auto opened = ServableModel::Open(fixture.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::vector<TiePair> ties = AllTies(*fixture.model);
  const TiePair unknown = UnknownTie(*fixture.model);
  std::ostringstream request;
  request << ties[0].u << ' ' << ties[0].v << '\n'
          << ties[1].u << ' ' << ties[1].v << ' ' << unknown.u << ' '
          << unknown.v << '\n'
          << "stats\n"
          << "x y\n"
          << ties[2].u << ' ' << ties[2].v << '\n';

  obs::Registry& registry = obs::Registry::Default();
  obs::Histogram* latency = registry.GetHistogram("serve.query.seconds");
  const bool was_enabled = registry.enabled();
  std::string responses[2];
  uint64_t observations[2] = {0, 0};
  for (const bool on : {true, false}) {
    registry.set_enabled(on);
    latency->Reset();
    std::istringstream in(request.str());
    std::ostringstream out;
    RunServeLoop(opened.value(), in, out);
    responses[on] = out.str();
    observations[on] = latency->Stats().count;
  }
  registry.set_enabled(was_enabled);
  EXPECT_EQ(observations[true], 3u);
  EXPECT_EQ(observations[false], 0u);
  EXPECT_EQ(responses[true], responses[false]);
  EXPECT_EQ(std::count(responses[true].begin(), responses[true].end(), '\n'),
            5);
}

TEST(ServeLoopTest, RenderValueMatchesPrintfFixed6) {
  // The wire contract: RenderValue is byte-for-byte printf("%.6f"). The
  // sweep covers a dense dyadic grid over [0, 1], where d(u, v) lives (it
  // holds exact six-decimal ties such as 1/128 = 0.0078125); both
  // neighbours of every six-decimal rounding boundary; a seeded uniform
  // sample; and the extremes of the double range.
  size_t checked = 0;
  size_t mismatches = 0;
  char rendered[kMaxValueChars];
  const auto check = [&](double value) {
    ++checked;
    const std::string got(rendered, RenderValue(value, rendered));
    const std::string want = Printf6(value);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "RenderValue(" << std::hexfloat << value << ") = '"
                    << got << "', printf gives '" << want << "'";
    }
  };
  for (uint32_t k = 0; k <= (1u << 20); ++k) check(k * 0x1.0p-20);
  // Every power of two in [denorm_min, 1] and both its neighbours: every
  // shift of the integer path and both sides of its 2^-30 cut-off.
  for (int k = 0; k <= 1074; ++k) {
    const double power = std::ldexp(1.0, -k);
    check(power);
    check(std::nextafter(power, 0.0));
    check(std::nextafter(power, 2.0));
  }
  // Every six-decimal value, and the largest double below 1, which
  // carries into 1.000000.
  for (uint32_t k = 0; k <= 1000000; ++k) check(k / 1e6);
  check(std::nextafter(1.0, 0.0));
  for (uint32_t k = 0; k < 1000000; ++k) {
    const double halfway = (k + 0.5) / 1e6;
    check(halfway);
    check(std::nextafter(halfway, 0.0));
    check(std::nextafter(halfway, 1.0));
  }
  util::Rng rng(2024);
  for (int i = 0; i < 1000000; ++i) check(rng.NextDouble());
  using Limits = std::numeric_limits<double>;
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 0.9999995, -0.0000004, 123.4567895,
        Limits::denorm_min(), -Limits::denorm_min(),
        Limits::min() - Limits::denorm_min(), Limits::min(), Limits::max(),
        -Limits::max(), Limits::infinity(), -Limits::infinity()}) {
    check(value);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " values";

  char na[kMaxValueChars];
  EXPECT_EQ(std::string(na, RenderValue(Limits::quiet_NaN(), na)), "NA");
  EXPECT_EQ(std::string(na, RenderValue(-Limits::quiet_NaN(), na)), "NA");
  EXPECT_EQ(Printf6(-Limits::max()).size(), kMaxValueChars);
}

TEST(ServeConcurrencyTest, ConcurrentReadersStayBitIdentical) {
  // Many threads hammer one ServableModel through an eviction-heavy cache.
  // Cache races may change WHEN a value is recomputed, never WHAT a query
  // answers: every thread must see exactly the single-threaded values.
  // Runs under TSan via scripts/check_sanitizers.sh.
  const Exported& fixture = Parity();
  const std::vector<TiePair> ties = AllTies(*fixture.model);
  std::vector<double> expected;
  expected.reserve(ties.size());
  for (const TiePair& tie : ties) {
    expected.push_back(fixture.model->Directionality(tie.u, tie.v));
  }
  ServeOptions options;
  options.cache_capacity = ties.size() / 4;  // forces constant eviction
  options.cache_ways = 4;
  auto opened = ServableModel::Open(fixture.path, options);
  ASSERT_TRUE(opened.ok());
  const ServableModel& servable = opened.value();

  constexpr size_t kThreads = 8;
  constexpr size_t kPasses = 3;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> got(ties.size(), 0.0);
      for (size_t pass = 0; pass < kPasses; ++pass) {
        if (t % 2 == 0) {
          // Batch readers, each starting the sweep at a different arc.
          if (!servable.QueryBatch(ties, got).ok()) {
            mismatches.fetch_add(ties.size());
            continue;
          }
          for (size_t i = 0; i < ties.size(); ++i) {
            if (got[i] != expected[i]) mismatches.fetch_add(1);
          }
        } else {
          // Scalar readers in a thread-dependent order.
          for (size_t i = 0; i < ties.size(); ++i) {
            const size_t e = (i * 31 + t * 17) % ties.size();
            const auto value = servable.Query(ties[e].u, ties[e].v);
            if (!value.ok() || value.value() != expected[e]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // The cache did real work concurrently (hits and evictions both landed).
  const TieCacheStats stats = servable.CacheStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(TieCacheStatsTest, HitsPlusMissesEqualsLookupsUnderHammer) {
  // Every Lookup counts exactly one hit or one miss, and the merged
  // counters never move backwards — pinned under an 8-thread hammer with
  // a key range big enough to keep evicting.
  ShardedTieCache cache(/*capacity=*/256, /*ways=*/8);
  constexpr size_t kThreads = 8;
  constexpr uint64_t kLookupsPerThread = 20000;
  constexpr uint64_t kKeyRange = 4096;

  std::atomic<uint64_t> monotonicity_violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &monotonicity_violations, t] {
      uint64_t last_hits = 0, last_misses = 0, last_evictions = 0;
      for (uint64_t i = 0; i < kLookupsPerThread; ++i) {
        // Alternate a small hot set (guaranteed hits once warm) with a
        // sweep over a range far beyond capacity (guaranteed evictions).
        const uint64_t key =
            (i & 1) ? 1 + i % 64
                    : 65 + (i * 2654435761u + t * 40503u) % kKeyRange;
        double value = 0.0;
        if (!cache.Lookup(key, &value)) {
          cache.Insert(key, static_cast<double>(key) * 0.5);
        }
        if (i % 1024 == 0) {
          // Merged counters are monotone even while 7 peers are racing.
          const TieCacheStats snap = cache.Stats();
          if (snap.hits < last_hits || snap.misses < last_misses ||
              snap.evictions < last_evictions) {
            monotonicity_violations.fetch_add(1);
          }
          last_hits = snap.hits;
          last_misses = snap.misses;
          last_evictions = snap.evictions;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const TieCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookupsPerThread)
      << "a Lookup was dropped or double-counted";
  EXPECT_EQ(monotonicity_violations.load(), 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // key range >> capacity forces churn
}

TEST(MmapRwFileTest, CreateWriteSyncReopenRoundTrip) {
  const std::string path = "/tmp/deepdirect_mmap_rw_test_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  constexpr uint64_t kSize = 1 << 20;
  {
    auto created = MmapRwFile::Create(path, kSize);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    MmapRwFile& file = created.value();
    ASSERT_TRUE(file.valid());
    ASSERT_EQ(file.size(), kSize);
    auto* bytes = static_cast<unsigned char*>(file.data());
    // A sparse file reads zero before any store.
    EXPECT_EQ(bytes[0], 0u);
    EXPECT_EQ(bytes[kSize - 1], 0u);
    for (uint64_t i = 0; i < kSize; i += 4096) {
      bytes[i] = static_cast<unsigned char>(i >> 12);
    }
    // Dropping residency must not lose data that only the page cache
    // holds: nothing was synced.
    file.DropResident(0, kSize);
    for (uint64_t i = 0; i < kSize; i += 4096) {
      ASSERT_EQ(bytes[i], static_cast<unsigned char>(i >> 12))
          << "DropResident lost data at offset " << i;
    }
  }
  // The stores reach the file through the shared mapping: a read-only map
  // of it sees them after the writable one is gone.
  {
    auto reopened = MmapFile::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_EQ(reopened.value().size(), kSize);
    const auto* bytes =
        static_cast<const unsigned char*>(reopened.value().data());
    for (uint64_t i = 0; i < kSize; i += 4096) {
      ASSERT_EQ(bytes[i], static_cast<unsigned char>(i >> 12));
    }
  }
  std::remove(path.c_str());
}

TEST(MmapRwFileTest, MissingFileReportsIOErrorNotResourceExhausted) {
  auto created =
      MmapRwFile::Create("/tmp/deepdirect_mmap_rw_missing_dir/rows.f32", 4096);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), util::StatusCode::kIOError);
}

}  // namespace
}  // namespace deepdirect::serve
