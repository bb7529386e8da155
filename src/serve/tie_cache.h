// Lock-free hot-tie cache for directionality values.
//
// Query traffic over social ties is heavily skewed (a Zipf-like head of
// celebrity ties absorbs most lookups), so a small cache sits in front of
// the mmap'd model. Since DDS1 version 2 stores each arc's score, a hit
// saves one CSR binary search and one load of the stored score: the
// common query becomes a handful of atomic loads. The design leans on one
// property of the values: they are PURE functions of the immutable model,
// so a cache race can only change *when* a value is looked up again,
// never *what* a query answers. That licenses a read path with no locks
// at all:
//
//   * arena storage, struct-of-arrays — the cache is four flat,
//     preallocated parallel arrays (keys, values, versions, reference
//     bits) grouped into power-of-two sets of `ways` consecutive entries.
//     A key probes exactly one set, and the probe scans only the key
//     array: at the default 8 ways that is one 64-byte line, so a lookup
//     touches the value and version of at most one way;
//   * seqlock entries — each way carries an atomic version counter (odd =
//     write in progress). Readers are wait-free: version, key re-check,
//     value, version re-check, and any interleaved write reads as a miss
//     (looking a pure value up again is always safe). Writers claim a way with
//     one CAS and skip the insert when they lose a race — inserts are an
//     optimization, never an obligation. Every access is an atomic
//     operation, so the scheme is data-race-free under the C++ memory
//     model (and TSan-clean, which the concurrent serving test pins);
//   * LRU eviction, second-chance flavor — a hit sets the way's
//     referenced bit (one relaxed store); a full set evicts via a per-set
//     clock hand that spares recently referenced ways, the classic
//     within-set approximation of least-recently-used. Fresh inserts
//     start unreferenced, so a scan of cold ties cannot flush the hot
//     head;
//   * counters — hits, misses, and evictions land in thread-striped cells
//     merged by Stats(); the same events bump the obs registry counters
//     serve.cache.{hits,misses,evictions} when telemetry is enabled, so
//     --metrics-out surfaces cache efficiency alongside the latency
//     histograms.
//
// Lookup is defined inline here: it sits on the serving fast path, where
// an out-of-line call per query would cost a measurable fraction of the
// cache's entire benefit.

#ifndef DEEPDIRECT_SERVE_TIE_CACHE_H_
#define DEEPDIRECT_SERVE_TIE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace deepdirect::serve {

/// Merged cache telemetry (see also serve.cache.* in the obs registry).
struct TieCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t capacity = 0;  ///< total ways across sets (0 = disabled)
};

/// Fixed-capacity, lock-free, set-associative cache from packed tie keys
/// to doubles. All methods are safe to call concurrently; the value must
/// be a pure function of the key (identical value for every insert of one
/// key), which ServableModel's directionality values are.
class ShardedTieCache {
 public:
  /// `capacity` total entries grouped into sets of `ways` (capacity
  /// rounds up to a whole power-of-two number of sets); capacity 0
  /// disables the cache entirely (Lookup always misses without counting,
  /// Insert is a no-op).
  explicit ShardedTieCache(size_t capacity, size_t ways = 8);

  bool enabled() const { return !keys_.empty(); }

  /// Fetches `key` into `*value` and marks the way recently used. Counts
  /// one hit or miss. Wait-free: a concurrent write to the way reads as a
  /// miss.
  bool Lookup(uint64_t key, double* value) const {
    if (!enabled()) return false;
    if (key != kEmptyKey) {
      const size_t base = SetBase(key);
      for (size_t w = base; w < base + ways_; ++w) {
        if (keys_[w].load(std::memory_order_relaxed) != key) continue;
        const uint32_t v1 = versions_[w].load(std::memory_order_acquire);
        if (v1 & 1u) continue;  // writer mid-update: look it up instead
        if (keys_[w].load(std::memory_order_relaxed) != key) continue;
        const double got = values_[w].load(std::memory_order_relaxed);
        // Seqlock re-check: the key/value loads above are ordered before
        // this version re-load; any interleaved write bumped the version.
        std::atomic_thread_fence(std::memory_order_acquire);
        if (versions_[w].load(std::memory_order_relaxed) != v1) continue;
        refs_[w].store(1, std::memory_order_relaxed);
        *value = got;
        Bump(Stripe().hits);
        if (obs::Enabled()) obs_hits_->Add();
        return true;
      }
    }
    Bump(Stripe().misses);
    if (obs::Enabled()) obs_misses_->Add();
    return false;
  }

  /// Inserts `key`, evicting a not-recently-used way when its set is
  /// full. Best-effort: a lost race with another writer skips the insert
  /// (the value can always be looked up again).
  void Insert(uint64_t key, double value) const;

  /// Merged counters across threads.
  TieCacheStats Stats() const;

 private:
  struct alignas(64) StatCell {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  /// No real tie packs to this key (it would need node ids of 2^32 - 1 on
  /// both ends, which FindArc rejects first); it marks never-written
  /// ways, and Lookup/Insert treat it as uncacheable.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr size_t kStatStripes = 8;

  /// SplitMix64 finalizer: spreads packed (u, v) keys — whose bits carry
  /// heavy node-id structure — uniformly across sets.
  static uint64_t MixKey(uint64_t key) {
    key += 0x9e3779b97f4a7c15ULL;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
  }

  /// Index of the first way of `key`'s set in the parallel arrays.
  size_t SetBase(uint64_t key) const {
    return (MixKey(key) & set_mask_) * ways_;
  }

  /// Telemetry bump without the lock prefix of fetch_add: stripes are
  /// assigned round-robin per thread, so the load+store pair is exact for
  /// up to kStatStripes concurrent threads and may drop the odd count
  /// beyond that — counters are telemetry, not invariants, and the plain
  /// store keeps the cache-hit path free of locked instructions.
  static void Bump(std::atomic<uint64_t>& cell) {
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  /// Per-thread stat cell, assigned round-robin so concurrent readers do
  /// not contend on one counter line. Inline: it sits on the hit path.
  StatCell& Stripe() const {
    static std::atomic<size_t> next_stripe{0};
    thread_local const size_t stripe =
        next_stripe.fetch_add(1, std::memory_order_relaxed) % kStatStripes;
    return stripes_[stripe];
  }

  // Parallel arrays, set-major: way w of set s lives at s * ways_ + w.
  // mutable: Lookup is logically const on the key→value mapping while
  // still updating recency bits and counters.
  mutable std::vector<std::atomic<uint64_t>> keys_;
  mutable std::vector<std::atomic<double>> values_;
  mutable std::vector<std::atomic<uint32_t>> versions_;
  mutable std::vector<std::atomic<uint8_t>> refs_;
  mutable std::vector<std::atomic<uint32_t>> hands_;  ///< per-set clock
  mutable StatCell stripes_[kStatStripes];
  size_t ways_ = 0;
  size_t set_mask_ = 0;  ///< num_sets - 1 (sets are a power of two)
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
};

}  // namespace deepdirect::serve

#endif  // DEEPDIRECT_SERVE_TIE_CACHE_H_
