// Deterministic blocked parallelism for precompute stages.
//
// Every preprocessing stage in this library (pattern pseudo-labels,
// centrality sweeps, adjacency assembly) is parallelized the same way: the
// index range is cut into fixed-size blocks whose decomposition depends
// only on the problem size — never on the worker count — and each block
// writes into its own output region (or its own accumulator, reduced
// serially in block order afterwards). Because the work-to-block mapping
// and every reduction order are thread-count-independent, a stage produces
// bit-identical results for any `num_threads`, unlike the Hogwild training
// path where update interleaving is scheduler-dependent.
//
// Stages that need per-item randomness derive a counter-based RNG from
// (seed, item index) via PerItemSeed instead of consuming a shared
// sequential stream, which keeps the sampled values independent of both
// the visit order and the thread count.

#ifndef DEEPDIRECT_TRAIN_PARALLEL_H_
#define DEEPDIRECT_TRAIN_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>

#include "train/thread_pool.h"
#include "util/random.h"

namespace deepdirect::train {

namespace internal {

// Process-wide pool shared by every ParallelBlocks call, grown on demand
// to the largest worker count ever requested. Spawning threads costs far
// more than a preprocessing block on small graphs, so per-call pools would
// erase the parallel win; one cached pool amortizes the spawn across all
// stages. The mutex serializes whole ParallelBlocks calls — preprocessing
// stages are top-level and never nest, so contention is nil.
inline std::mutex& SharedPoolMutex() {
  static std::mutex mu;
  return mu;
}

// The pool is never destroyed. A destructor at exit would join the pool's
// threads, and a child forked from a multi-threaded process (a death
// test's) has none of them: its std::exit crashed in that join.
inline ThreadPool& SharedPool(size_t workers) {
  static ThreadPool* pool = nullptr;
  if (pool == nullptr || pool->size() < workers) {
    delete pool;
    pool = new ThreadPool(workers);
  }
  return *pool;
}

}  // namespace internal

/// Resolves a `num_threads` knob: 0 = all hardware threads, otherwise the
/// requested count (at least 1).
inline size_t ResolveThreadCount(size_t num_threads) {
  return num_threads == 0 ? ThreadPool::HardwareConcurrency()
                          : std::max<size_t>(1, num_threads);
}

/// Number of blocks a range of `n` items splits into at `block_size`.
inline size_t NumBlocks(size_t n, size_t block_size) {
  return block_size == 0 ? 0 : (n + block_size - 1) / block_size;
}

/// Block size that caps a range of `n` items at `max_blocks` blocks —
/// used by accumulating stages whose per-block scratch is O(output size).
inline size_t BlockSizeFor(size_t n, size_t max_blocks) {
  return std::max<size_t>(1, (n + max_blocks - 1) / max_blocks);
}

/// Runs fn(block, begin, end) over the fixed decomposition of [0, n) into
/// `block_size`-sized blocks. With one worker (or a single block) the
/// blocks run inline in block order on the caller's thread; otherwise they
/// are distributed over a pool. The decomposition depends only on
/// (n, block_size), so any scheduling produces the same block set; callers
/// keep determinism by writing disjoint outputs per block (or reducing
/// per-block accumulators in block order after the call returns).
inline void ParallelBlocks(size_t n, size_t block_size, size_t num_threads,
                           const std::function<void(size_t, size_t, size_t)>&
                               fn) {
  const size_t blocks = NumBlocks(n, block_size);
  if (blocks == 0) return;
  const size_t workers = std::min(ResolveThreadCount(num_threads), blocks);
  if (workers <= 1) {
    for (size_t b = 0; b < blocks; ++b) {
      fn(b, b * block_size, std::min(n, (b + 1) * block_size));
    }
    return;
  }
  // One striped task per worker (block b runs on stripe b % workers): the
  // pool may hold more threads than this call requested, but at most
  // `workers` tasks exist, so the caller's thread budget is honored. The
  // stripe assignment never affects the output — blocks still write
  // disjoint regions regardless of which thread runs them.
  std::lock_guard<std::mutex> lock(internal::SharedPoolMutex());
  ThreadPool& pool = internal::SharedPool(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.Submit([&, w] {
      for (size_t b = w; b < blocks; b += workers) {
        fn(b, b * block_size, std::min(n, (b + 1) * block_size));
      }
    });
  }
  pool.Wait();
}

/// Counter-based per-item seed: mixes (seed, item) through SplitMix64 so
/// each item owns an independent, visit-order-free RNG stream.
inline uint64_t PerItemSeed(uint64_t seed, uint64_t item) {
  util::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (item + 1)));
  return sm.Next();
}

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_PARALLEL_H_
