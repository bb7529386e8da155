// ShardedDeepDirectModel: DeepDirect trained out-of-core.
//
// Identical algorithm to DeepDirectModel::Train — the same preprocessing
// and the same E-step and D-step pipeline (core/estep_body.h) — but the
// |E|×l embedding matrix M and connection matrix N never live on the heap.
// They live in a train::ShardedStore (mmap-backed DDSH shard files,
// graph/shard_format.h), and a fixed resident budget
// (`config.sharding.ram_budget_mb`) bounds how many parameter pages stay
// mapped in at once, so graphs whose matrices dwarf RAM still train. The
// closure TieIndex, the pattern arena and the sampling tables stay on the
// heap, as in RAM: they are small next to M and N.
//
// Determinism contract:
//   * num_threads == 1 is bit-identical to the in-RAM trainer for ANY
//     shard count: the store fills embeddings in the exact
//     ml::Matrix::FillUniform draw order, the serial driver path samples
//     globally (shard affinity off), and the shared pipeline runs the same
//     arithmetic against spans that merely point at mmap instead of heap.
//     Goldens in tests/sharded_store_test.cc pin this.
//   * num_threads > 1 runs shard-affine Hogwild (SgdOptions::ShardPlan):
//     shard s pins to worker s % N, each worker interleaves its shards in
//     rounds, and steps sample sources from their shard, keeping each
//     worker's resident pages hot. Like all Hogwild runs, not
//     bit-reproducible.
//
// A run reports under the in-RAM trainer's phase names and metrics prefix,
// plus its own `deepdirect.sharded.create_store` phase and `train.store.*`
// counters. The trained model serves d(u, v) straight off the (sealed)
// store — no full-matrix materialization at any point. Checkpoint/resume
// is not supported out-of-core yet (the store itself is the durable E-step
// state); `config.checkpoint.dir` must be empty.

#ifndef DEEPDIRECT_CORE_SHARDED_TRAINER_H_
#define DEEPDIRECT_CORE_SHARDED_TRAINER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deepdirect.h"
#include "core/directionality.h"
#include "core/tie_index.h"
#include "train/sharded_store.h"

namespace deepdirect::core {

/// A DeepDirect model whose embedding rows live in a ShardedStore. See the
/// file comment; drop-in DirectionalityModel, so DiscoverDirections and
/// DirectionDiscoveryAccuracy work unchanged.
class ShardedDeepDirectModel : public DirectionalityModel {
 public:
  /// Trains out-of-core per `config.sharding` (num_shards > 0 and a store
  /// directory are required; checkpointing is not supported). A shard
  /// count that would leave a shard without arcs shrinks to the shards
  /// that receive some (store().num_shards()). Returns the model serving
  /// from the sealed store.
  static util::Result<std::unique_ptr<ShardedDeepDirectModel>> Train(
      const graph::MixedSocialNetwork& g, const DeepDirectConfig& config);

  /// d(u, v) = σ(w·m_uv + b), read straight from the store (admitting the
  /// row's pages under the budget if needed). The pair must host a tie of
  /// the training network.
  double Directionality(graph::NodeId u, graph::NodeId v) const override;

  /// d(u, v) when the pair hosts a training tie; NotFound otherwise.
  util::Result<double> TryDirectionality(graph::NodeId u,
                                         graph::NodeId v) const override;
  std::string name() const override { return "DeepDirect"; }

  /// The backing store (residency stats, geometry, raw rows).
  const train::ShardedStore& store() const { return *store_; }
  train::ShardedStore& store() { return *store_; }

  /// E-Step classifier parameters (w', b'), exposed for tests.
  const std::vector<double>& e_step_weights() const {
    return e_step_weights_;
  }
  double e_step_bias() const { return e_step_bias_; }

  /// The D-Step logistic regression (Eq. 26).
  const ml::LogisticRegression& d_step_regression() const { return d_step_; }

 private:
  ShardedDeepDirectModel(TieIndex index,
                         std::unique_ptr<train::ShardedStore> store)
      : index_(std::move(index)),
        store_(std::move(store)),
        d_step_(store_->dimensions()) {}

  TieIndex index_;
  std::unique_ptr<train::ShardedStore> store_;
  std::vector<double> e_step_weights_;
  double e_step_bias_ = 0.0;
  ml::LogisticRegression d_step_;
};

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_SHARDED_TRAINER_H_
