// ShardedDeepDirectModel: DeepDirect trained out-of-core.
//
// A DeepDirectModel whose rows live in a train::ShardedStore it owns. One
// pipeline trains both (DeepDirectModel::Fit, core/deepdirect.cc: the same
// preprocessing and the same E-step and D-step of core/estep_body.h), but
// here the |E|×l embedding matrix M and connection matrix N never live on
// the heap. They live in one mmap-backed row file under the store
// directory (train/sharded_store.h), and a fixed resident budget
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
//     Goldens in tests/sharded_store_test.cc pin this, down to the bytes
//     of the exported DDS1 file.
//   * num_threads > 1 runs shard-affine Hogwild (SgdOptions::ShardPlan):
//     shard s pins to worker s % N, each worker interleaves its shards in
//     rounds, and steps sample sources from their shard, keeping each
//     worker's resident pages hot. Like all Hogwild runs, not
//     bit-reproducible.
//
// A run reports under the in-RAM trainer's phase names and metrics prefix,
// plus its own `deepdirect.sharded.create_store` phase and `train.store.*`
// counters. The trained model reads M straight off the store —
// Directionality, TieEmbedding and ExportServable admit each row's pages
// under the budget, and nothing materializes the full matrix. Sharded runs
// cannot checkpoint yet; `config.checkpoint.dir` must be empty.

#ifndef DEEPDIRECT_CORE_SHARDED_TRAINER_H_
#define DEEPDIRECT_CORE_SHARDED_TRAINER_H_

#include <memory>

#include "core/deepdirect.h"
#include "train/sharded_store.h"

namespace deepdirect::core {

/// A DeepDirectModel whose embedding rows live in a ShardedStore. See the
/// file comment.
class ShardedDeepDirectModel : public DeepDirectModel {
 public:
  /// Trains out-of-core per `config.sharding` (num_shards > 0 and a store
  /// directory are required; checkpointing is not supported). A shard
  /// count that would leave a shard without arcs shrinks to the shards
  /// that receive some (store().num_shards()). Returns the model reading
  /// from the store.
  static util::Result<std::unique_ptr<ShardedDeepDirectModel>> Train(
      const graph::MixedSocialNetwork& g, const DeepDirectConfig& config);

  /// The backing store (residency stats, geometry, raw rows).
  const train::ShardedStore& store() const { return *store_; }
  train::ShardedStore& store() { return *store_; }

 private:
  using DeepDirectModel::DeepDirectModel;
};

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_SHARDED_TRAINER_H_
