// LINE: Large-scale Information Network Embedding (Tang et al., WWW 2015).
//
// The node-embedding baseline of the paper's experiments (Sec. 6.1). Learns
// per-node vectors preserving first-order proximity (directly connected
// nodes embed close) and second-order proximity (nodes with similar
// neighborhoods embed close, via separate context vectors), each trained by
// skip-gram-style negative sampling over arc draws. The final node vector
// concatenates the two halves, as the LINE paper prescribes.
//
// For the TDL task a tie (u, v) is represented by concatenating the vectors
// of u and v (Sec. 6.1: "the two vectors corresponding to the source node
// and the target node are concatenated as its feature vector").

#ifndef DEEPDIRECT_EMBEDDING_LINE_H_
#define DEEPDIRECT_EMBEDDING_LINE_H_

#include <span>

#include "graph/mixed_graph.h"
#include "ml/matrix.h"
#include "train/checkpoint.h"
#include "train/lr_schedule.h"
#include "util/random.h"

namespace deepdirect::embedding {

/// LINE training hyper-parameters.
struct LineConfig {
  /// Total node-vector dimensionality; split evenly between the first-order
  /// and second-order halves. Must be even.
  size_t dimensions = 64;
  /// Negative samples per positive arc draw.
  size_t negative_samples = 5;
  /// SGD steps per arc (per proximity order): total steps =
  /// samples_per_arc × num_arcs.
  size_t samples_per_arc = 40;
  double initial_learning_rate = 0.025;
  /// Learning rate decays linearly to this fraction of the initial rate.
  double min_lr_fraction = 1e-2;
  uint64_t seed = 7;
  /// SGD workers (0 = all hardware threads). 1 runs the deterministic
  /// serial path; > 1 runs Hogwild-style lock-free updates, which are fast
  /// but not bit-reproducible.
  size_t num_threads = 1;
  /// Crash-safe checkpoint/resume (off unless `checkpoint.dir` is set).
  /// One epoch is num_arcs steps; the default trainer tag is "line".
  train::CheckpointOptions checkpoint;

  /// The decay schedule these parameters describe.
  train::LrSchedule Schedule() const {
    return {initial_learning_rate, min_lr_fraction,
            train::LrSchedule::Decay::kClampedLinear};
  }
};

/// Trained LINE node embeddings.
class LineEmbedding {
 public:
  /// Trains LINE on the network's arcs (unit weights).
  static LineEmbedding Train(const graph::MixedSocialNetwork& g,
                             const LineConfig& config);

  /// Total dimensionality of a node vector.
  size_t dimensions() const { return first_.cols() + second_.cols(); }

  /// First-order half of node u's vector.
  std::span<const float> FirstOrder(graph::NodeId u) const {
    return first_.Row(u);
  }

  /// Second-order half of node u's vector.
  std::span<const float> SecondOrder(graph::NodeId u) const {
    return second_.Row(u);
  }

  /// Copies the concatenated node vector into `out` (size dimensions()).
  void NodeVector(graph::NodeId u, std::span<double> out) const;

 private:
  LineEmbedding(ml::Matrix first, ml::Matrix second)
      : first_(std::move(first)), second_(std::move(second)) {}

  ml::Matrix first_;
  ml::Matrix second_;
};

}  // namespace deepdirect::embedding

#endif  // DEEPDIRECT_EMBEDDING_LINE_H_
