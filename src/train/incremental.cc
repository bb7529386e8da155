#include "train/incremental.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "graph/graph_io.h"
#include "train/checkpoint.h"
#include "util/random.h"

namespace deepdirect::train {
namespace {

namespace fs = std::filesystem;

// Unordered-pair key for in-batch duplicate detection (same packing as
// GraphBuilder's occupancy set).
uint64_t PairKey(graph::NodeId u, graph::NodeId v) {
  const uint64_t lo = std::min(u, v);
  const uint64_t hi = std::max(u, v);
  return (hi << 32) | lo;
}

// Mirror of the engine-owned "meta" section layout (checkpoint.cc). The
// state loader only needs the epoch counter; the writer fills the run-
// shape fields with zeros, which makes Train's resume scan reject the
// container with a shape mismatch (warn + skip) instead of resuming a
// full-retrain budget from post-update state.
struct CheckpointMetaMirror {
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
static_assert(sizeof(CheckpointMetaMirror) == 64);

}  // namespace

util::Result<TieBatch> ParseTieBatch(std::istream& in,
                                     const std::string& origin) {
  TieBatch batch;
  // Unordered pair -> first line that declared it.
  std::unordered_map<uint64_t, uint32_t> seen;

  std::string line;
  size_t line_number = 0;
  graph::TieLine parsed;
  while (std::getline(in, line)) {
    ++line_number;
    const util::Status status =
        graph::ParseTieLine(line, line_number, &parsed);
    if (!status.ok()) {
      return util::Status::InvalidArgument(origin + ": " + status.message());
    }
    if (parsed.kind == graph::TieLine::Kind::kNodes) {
      batch.declared_nodes = parsed.nodes;
    }
    if (parsed.kind != graph::TieLine::Kind::kTie) continue;
    const graph::NodeId u = parsed.u;
    const graph::NodeId v = parsed.v;
    if (u == v) {
      return util::Status::InvalidArgument(
          origin + ": self-loop " + std::to_string(u) + " at line " +
          std::to_string(line_number));
    }
    const auto [it, inserted] =
        seen.emplace(PairKey(u, v), static_cast<uint32_t>(line_number));
    if (!inserted) {
      return util::Status::InvalidArgument(
          origin + ": duplicate tie " + std::to_string(u) + " " +
          std::to_string(v) + " at line " + std::to_string(line_number) +
          " (first declared at line " + std::to_string(it->second) + ")");
    }
    batch.max_node_id = std::max({batch.max_node_id, u, v});
    batch.ties.push_back(
        {u, v, parsed.type, static_cast<uint32_t>(line_number)});
  }
  if (in.bad()) {
    return util::Status::IOError(origin + ": read error");
  }
  return batch;
}

util::Result<TieBatch> LoadTieBatch(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return util::Status::IOError("cannot open for reading: " + path);
  }
  return ParseTieBatch(in, path);
}

util::Result<EStepState> LoadEStepState(const std::string& dir,
                                        const std::string& trainer) {
  // A callback-less Checkpointer is just the directory-scan logic; the
  // sections are read directly below (the engine's Resume would insist on
  // a matching run shape, which a warm-start consumer has no use for).
  CheckpointOptions options;
  options.dir = dir;
  options.trainer = trainer;
  const Checkpointer scanner(options, RunShape{}, nullptr, nullptr);

  for (const std::string& path : scanner.ListCheckpoints()) {
    auto read = CheckpointData::Read(path);
    if (!read.ok()) {
      std::cerr << "[incremental] skipping " << path << ": "
                << read.status().ToString() << "\n";
      continue;
    }
    const CheckpointData& data = read.value();

    EStepState state;
    CheckpointMetaMirror meta;
    util::Status status = data.ReadPod("meta", &meta);
    if (status.ok()) status = data.ReadVector("w_prime", &state.w_prime);
    if (status.ok() && state.w_prime.empty()) {
      status = util::Status::InvalidArgument(path + ": empty w_prime");
    }
    if (status.ok()) status = data.ReadVector("m", &state.m);
    if (status.ok()) status = data.ReadVector("n", &state.n);
    if (status.ok()) status = data.ReadPod("b_prime", &state.b_prime);
    if (status.ok()) {
      state.dimensions = state.w_prime.size();
      if (state.m.size() != state.n.size() ||
          state.m.size() % state.dimensions != 0) {
        status = util::Status::InvalidArgument(
            path + ": embedding sections do not factor into " +
            std::to_string(state.dimensions) + "-wide rows (m " +
            std::to_string(state.m.size()) + ", n " +
            std::to_string(state.n.size()) + " floats)");
      }
    }
    if (!status.ok()) {
      std::cerr << "[incremental] skipping " << path << ": "
                << status.ToString() << "\n";
      continue;
    }
    state.num_arcs = state.m.size() / state.dimensions;
    state.epochs_done = meta.epochs_done;
    if (data.Has("tie_hash")) {
      // Optional (older checkpoints lack it); a bad read is a corrupt
      // section, not a missing feature.
      status = data.ReadPod("tie_hash", &state.tie_hash);
      if (!status.ok()) {
        std::cerr << "[incremental] skipping " << path << ": "
                  << status.ToString() << "\n";
        continue;
      }
    }
    return state;
  }
  return util::Status::NotFound(
      "no usable '" + trainer + "' checkpoint in " + dir +
      " (train with checkpointing enabled first; the final state is "
      "written when CheckpointPolicy::write_final is set)");
}

util::Status SaveEStepState(const std::string& dir,
                            const std::string& trainer,
                            const EStepState& state) {
  if (state.dimensions == 0 || state.w_prime.size() != state.dimensions ||
      state.m.size() != state.num_arcs * state.dimensions ||
      state.n.size() != state.m.size()) {
    return util::Status::InvalidArgument(
        "inconsistent E-step state: " + std::to_string(state.num_arcs) +
        " arcs x " + std::to_string(state.dimensions) + " dims, m " +
        std::to_string(state.m.size()) + ", n " +
        std::to_string(state.n.size()) + ", w_prime " +
        std::to_string(state.w_prime.size()));
  }
  CheckpointWriter writer;
  CheckpointMetaMirror meta;
  meta.epochs_done = state.epochs_done;
  writer.AddPod("meta", meta);
  writer.AddSection("trainer", trainer.data(), trainer.size());
  // A fresh, valid serial stream: the chained update derives its own RNG,
  // so this section exists only to keep the container uniform.
  const std::array<uint64_t, 4> rng_state =
      util::Rng(state.epochs_done).state();
  writer.AddSection("rng", rng_state.data(), rng_state.size() * 8);
  writer.AddVector("m", state.m);
  writer.AddVector("n", state.n);
  writer.AddVector("w_prime", state.w_prime);
  writer.AddPod("b_prime", state.b_prime);
  writer.AddPod("tie_hash", state.tie_hash);

  std::error_code ec;
  fs::create_directories(dir, ec);
  CheckpointOptions options;
  options.dir = dir;
  options.trainer = trainer;
  const Checkpointer namer(options, RunShape{}, nullptr, nullptr);
  return writer.WriteAtomic(namer.PathFor(state.epochs_done));
}

}  // namespace deepdirect::train
