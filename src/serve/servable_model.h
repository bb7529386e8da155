// Read-only serving runtime over an exported DDS1 model file.
//
// ServableModel::Open memory-maps the file, validates every byte of it
// (the shared container reader of train/container.h: header, section
// table, payload CRCs, zero padding; then the meta, section sizes, CSR and
// that every score lies in [+0, 1]), and then answers d(u, v) queries
// directly off the mapping: a binary search of the CSR tie index finds the
// arc, and its stored score is the answer, read in place, zero-copy. The
// object is immutable after Open — concurrent readers share one instance
// with no synchronization beyond the optional hot-tie cache's seqlocks.
//
// Numerical contract: Query and QueryBatch return bit-identical doubles to
// the training-side DeepDirectModel::Directionality for every tie — the
// file stores the value that call returns (core/servable_format.h). The
// golden parity suite in tests/serve_test.cc pins this with exact
// EXPECT_EQ.
//
// Unknown-tie contract: a pair (u, v) with no closure arc in the training
// network is a typed condition, never UB — Query returns kNotFound, and
// QueryBatch either fails the batch (MissingPolicy::kError) or writes NaN
// for that slot (MissingPolicy::kNan).

#ifndef DEEPDIRECT_SERVE_SERVABLE_MODEL_H_
#define DEEPDIRECT_SERVE_SERVABLE_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "graph/types.h"
#include "obs/metrics.h"
#include "serve/mmap_file.h"
#include "serve/tie_cache.h"
#include "util/status.h"

namespace deepdirect::serve {

/// One directed query: does u point the tie toward v?
struct TiePair {
  graph::NodeId u = 0;
  graph::NodeId v = 0;
};

/// How QueryBatch treats pairs with no closure arc in the training
/// network.
enum class MissingPolicy {
  kError,  ///< fail the whole batch with kNotFound
  kNan,    ///< write quiet NaN for that slot and keep going
};

/// Open-time knobs.
struct ServeOptions {
  /// Hot-tie cache slots (0 disables the cache).
  size_t cache_capacity = 0;
  /// Cache set associativity (slots a key may land in).
  size_t cache_ways = 8;
};

/// An immutable, mmap-backed directionality model.
class ServableModel {
 public:
  /// Maps and validates a DDS1 file. An unreadable path yields kIOError;
  /// any structural defect — bad magic/version, size mismatch, truncation,
  /// CRC failure, out-of-order or misaligned sections, nonzero padding,
  /// inconsistent CSR arrays, a score outside [+0, 1] (NaN and −0.0
  /// included) — yields kInvalidArgument naming the defect.
  static util::Result<ServableModel> Open(const std::string& path,
                                          const ServeOptions& options = {});

  ServableModel(ServableModel&&) = default;
  ServableModel& operator=(ServableModel&&) = default;
  ServableModel(const ServableModel&) = delete;
  ServableModel& operator=(const ServableModel&) = delete;

  /// d(u, v) for one tie; kNotFound if (u, v) is not a closure arc.
  util::Result<double> Query(graph::NodeId u, graph::NodeId v) const;

  /// Answers `ties` into `out` (the spans must be the same length).
  /// Under kError an unknown pair fails the batch before any further
  /// scoring; under kNan its slot becomes quiet NaN. Known pairs always
  /// receive the same value Query returns.
  util::Status QueryBatch(std::span<const TiePair> ties,
                          std::span<double> out,
                          MissingPolicy policy = MissingPolicy::kError) const;

  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_arcs() const { return num_arcs_; }
  uint64_t arc_hash() const { return arc_hash_; }

  const ShardedTieCache& cache() const { return *cache_; }
  TieCacheStats CacheStats() const { return cache_->Stats(); }

 private:
  ServableModel() = default;

  /// Dense arc index of (u, v), or num_arcs_ when absent (the same
  /// convention as core::TieIndex::TryIndexOf).
  uint64_t FindArc(graph::NodeId u, graph::NodeId v) const;

  MmapFile file_;
  uint64_t num_nodes_ = 0;
  uint64_t num_arcs_ = 0;
  uint64_t arc_hash_ = 0;
  const uint64_t* offsets_ = nullptr;  ///< [num_nodes + 1] CSR row starts
  const uint32_t* adj_ = nullptr;      ///< [num_arcs] sorted destinations
  const double* scores_ = nullptr;     ///< [num_arcs] d(e), in [+0, 1]

  // unique_ptr keeps ServableModel movable (the cache holds mutexes) and
  // the cache reference stable across moves.
  std::unique_ptr<ShardedTieCache> cache_;
  obs::Counter* obs_queries_ = nullptr;
  obs::Histogram* obs_batch_size_ = nullptr;
};

}  // namespace deepdirect::serve

#endif  // DEEPDIRECT_SERVE_SERVABLE_MODEL_H_
