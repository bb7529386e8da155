// Streaming tie-batch ingestion + warm-start E-step state.
//
// Real social graphs accrete ties continuously; retraining from scratch on
// every arrival throws away the checkpointed E-step state PR 5 made
// durable. This module is the train-layer half of incremental updates:
//
//   * TieBatch / ParseTieBatch / LoadTieBatch — a delta file of new ties in
//     the standard edge-list grammar (`u v d|b|u`, optional `# nodes N`
//     header, CRLF-tolerant), read line by line with graph::ParseTieLine.
//     Parsing is strict and line-anchored: a malformed line, unknown type,
//     node id or count that does not fit a NodeId, self-loop, trailing
//     token, or a tie duplicated *within* the batch yields InvalidArgument
//     naming the line (duplicates name both lines); an unreadable file
//     yields IOError.
//     Duplicates against the *existing* network are rejected by the core
//     splice (core::DeepDirectModel::ApplyTieBatch), which owns the graph.
//
//   * EStepState / LoadEStepState / SaveEStepState — the warm-start
//     payload: the embedding matrix M, the connection matrix N (which the
//     trained model does not retain), and the E-step classifier (w', b'),
//     read from the newest valid "deepdirect.estep" checkpoint in a
//     directory and written back as a chained checkpoint after each batch,
//     both under the E-step table (train::kEStepCheckpoint) that Train's
//     checkpoints use. Requires the producing run to have written its final
//     state (CheckpointPolicy::write_final); an ordinary resume snapshot is
//     one epoch short of the model that was actually served.
//
// Layering: this file lives in deepdirect_train and must not link the
// graph library (deepdirect_graph links train). graph/types.h provides
// TieType/NodeId and graph/graph_io.h the inline line parser, both
// header-only; everything needing the built network lives in
// core/incremental.h.

#ifndef DEEPDIRECT_TRAIN_INCREMENTAL_H_
#define DEEPDIRECT_TRAIN_INCREMENTAL_H_

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace deepdirect::train {

/// One new tie from a delta file, with the 1-based line it came from so
/// every later rejection (self-loop at splice time, duplicate of an
/// existing edge) can anchor its error to the input.
struct TieDelta {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  graph::TieType type = graph::TieType::kUndirected;
  uint32_t line = 0;
};

/// A parsed batch of new ties.
struct TieBatch {
  std::vector<TieDelta> ties;
  /// Node count from an optional `# nodes N` header (0 = none declared).
  size_t declared_nodes = 0;
};

/// Parses a delta stream; `origin` labels error messages (usually the
/// path). Line-anchored InvalidArgument on malformed lines, unknown types,
/// ids or counts beyond graph::kMaxNodes, self-loops, and in-batch
/// unordered-pair duplicates.
util::Result<TieBatch> ParseTieBatch(std::istream& in,
                                     const std::string& origin);

/// Reads and parses a delta file; IOError when unreadable.
util::Result<TieBatch> LoadTieBatch(const std::string& path);

/// The E-step training state a tie-batch update warm-starts from: flat
/// row-major M and N (num_arcs × dimensions each) plus the joint
/// classifier (w', b'). `tie_hash` binds the state to the closure arcs of
/// the network it was trained on (core::HashTieIndex). `epochs_done`
/// carries the checkpoint's counter so chained saves stay monotonic.
struct EStepState {
  size_t dimensions = 0;
  size_t num_arcs = 0;
  std::vector<float> m;
  std::vector<float> n;
  std::vector<double> w_prime;
  double b_prime = 0.0;
  uint64_t tie_hash = 0;
  uint64_t epochs_done = 0;
};

/// Scans `dir` for the newest valid checkpoint tagged `trainer` and
/// extracts the warm-start state. Corrupt or malformed candidates, and
/// files of another table or version, are skipped with a warning on
/// stderr, like Checkpointer::Resume; NotFound when no usable checkpoint
/// exists.
util::Result<EStepState> LoadEStepState(
    const std::string& dir, const std::string& trainer = "deepdirect.estep");

/// Writes `state` as a checkpoint named by its `epochs_done` counter
/// (train::CheckpointPath), so a later LoadEStepState — or the next chained
/// update — finds it first. The file is not resumable by Train (its run
/// shape belongs to no full-retrain budget); Train's resume scan warns and
/// skips it.
util::Status SaveEStepState(const std::string& dir,
                            const std::string& trainer,
                            const EStepState& state);

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_INCREMENTAL_H_
