#include "train/incremental.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "graph/graph_io.h"
#include "train/checkpoint.h"
#include "util/random.h"

namespace deepdirect::train {
namespace {

// Unordered-pair key for in-batch duplicate detection (same packing as
// GraphBuilder's occupancy set).
uint64_t PairKey(graph::NodeId u, graph::NodeId v) {
  const uint64_t lo = std::min(u, v);
  const uint64_t hi = std::max(u, v);
  return (hi << 32) | lo;
}

// Loads the E-step state from the checkpoint at `path`. The classifier's
// width fixes the row width and M's size the arc count; every other section
// size follows from those two.
util::Result<EStepState> LoadCandidate(const std::string& path,
                                       const std::string& trainer) {
  std::string bytes;
  DD_RETURN_NOT_OK(ReadCheckpointFile(path, &bytes));
  CheckpointMeta meta;
  auto opened = OpenCheckpoint(kEStepCheckpoint, trainer, path, bytes, &meta);
  if (!opened.ok()) return opened.status();
  const container::Reader& reader = opened.value();
  EStepState state;
  state.dimensions = reader.Array<std::byte>(5).size() / sizeof(double);
  if (state.dimensions == 0) return reader.Defect("empty w_prime");
  state.num_arcs =
      reader.Array<std::byte>(3).size() / sizeof(float) / state.dimensions;
  const uint64_t rows = state.num_arcs * state.dimensions * sizeof(float);
  DD_RETURN_NOT_OK(reader.CheckSizes(std::vector<uint64_t>{
      sizeof(meta), trainer.size(), sizeof(std::array<uint64_t, 4>), rows,
      rows, state.dimensions * sizeof(double), sizeof(double),
      sizeof(uint64_t)}));
  state.m.resize(state.num_arcs * state.dimensions);
  state.n.resize(state.m.size());
  state.w_prime.resize(state.dimensions);
  const std::span<std::byte> targets[] = {
      std::as_writable_bytes(std::span(state.m)),
      std::as_writable_bytes(std::span(state.n)),
      std::as_writable_bytes(std::span(state.w_prime)),
      std::as_writable_bytes(std::span(&state.b_prime, 1)),
      std::as_writable_bytes(std::span(&state.tie_hash, 1))};
  for (size_t i = 0; i < std::size(targets); ++i) {
    const auto section = reader.Array<std::byte>(kEngineSections + i);
    std::copy(section.begin(), section.end(), targets[i].begin());
  }
  state.epochs_done = meta.epochs_done;
  return state;
}

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
  for (const std::string& path : ListCheckpoints(dir, trainer)) {
    auto state = LoadCandidate(path, trainer);
    if (state.ok()) return state;
    std::cerr << "[incremental] skipping " << path << ": "
              << state.status().ToString() << "\n";
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
  // The run-shape fields stay zero, so Train's resume scan rejects the file
  // (warn + skip) instead of resuming a full-retrain budget from
  // post-update state.
  CheckpointMeta meta;
  meta.epochs_done = state.epochs_done;
  const container::Payload sections[] = {
      {state.m.data(), state.m.size() * sizeof(float)},
      {state.n.data(), state.n.size() * sizeof(float)},
      {state.w_prime.data(), state.w_prime.size() * sizeof(double)},
      {&state.b_prime, sizeof(double)},
      {&state.tie_hash, sizeof(uint64_t)}};
  // A fresh, valid serial stream: the chained update derives its own RNG,
  // so the rng section exists only to keep the table uniform.
  return WriteCheckpoint(kEStepCheckpoint, dir, trainer, meta,
                         util::Rng(state.epochs_done).state(), sections);
}

}  // namespace deepdirect::train
