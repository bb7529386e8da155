// ShardedStore: out-of-core storage for the E-step's working set.
//
// A store is a directory in the DDSH container format (graph/shard_format.h):
// one sealed graph file holding the symmetric-closure CSR, and one file per
// shard holding that shard's slice of the embedding matrix M, the
// connection matrix N, and the pattern arena for its undirected arcs. All
// of it is served through MAP_SHARED mmap, so the heap never holds the
// |E|×l parameter matrices — the kernel's page cache does, and a fixed
// resident budget (`ram_budget_mb`) bounds how much of it stays mapped in
// at once:
//
//   * EmbRow/ConnRow admit the row's shard on first touch and stamp its
//     LRU tick; admission over budget evicts the least-recently-used
//     resident shard by dropping its emb+conn pages (MADV_DONTNEED on a
//     MAP_SHARED mapping releases RSS without losing data — evicted rows
//     fault back in from the page cache / disk on the next touch).
//   * The returned spans stay valid for the store's lifetime even across
//     eviction (the mapping is never unmapped mid-run), so Hogwild workers
//     can race on rows exactly as they do on in-RAM matrices.
//   * Graph topology (offsets/adj/src/classes) is served from a read-only
//     MADV_RANDOM mapping of the sealed graph file and is not counted
//     against the budget; neither is the pattern arena (both are small
//     next to M and N and always hot).
//
// Residency counters are thread-striped-free by design: the admit path is
// a mutex (cold — once per shard working-set change), the touch path is
// two relaxed atomics. Create() fills the embedding sections with the
// caller's Rng in global row-major arc order — the exact draw order of
// ml::Matrix::FillUniform — which is what makes an nt=1 sharded run
// bit-identical to the in-RAM trainer regardless of the shard count.
//
// Not crash-atomic: shard files are live (unsealed) during training and
// Seal() must run before Open() will accept them again.

#ifndef DEEPDIRECT_TRAIN_SHARDED_STORE_H_
#define DEEPDIRECT_TRAIN_SHARDED_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/shard_format.h"
#include "serve/mmap_file.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::train {

/// Placement parameters of a new store.
struct ShardedStoreOptions {
  std::string dir;            ///< store directory (created if missing)
  size_t num_shards = 1;      ///< contiguous arc-range shards
  size_t ram_budget_mb = 256; ///< resident emb+conn budget across shards
};

/// Flat inputs Create() serializes; all spans reference caller memory and
/// are not retained. The pattern arrays are the global arena produced by
/// core::PrecomputePatterns (slot per arc, per-slot pseudo-labels, CSR of
/// triad pairs over *global* arc indices).
struct ShardedStoreInit {
  std::span<const size_t> offsets;      ///< num_nodes + 1
  std::span<const uint32_t> adjacency;  ///< num_arcs (also arc → dst)
  std::span<const uint32_t> sources;    ///< num_arcs (arc → src)
  std::span<const uint8_t> classes;     ///< num_arcs (core::ArcClass bytes)
  uint64_t num_connected_pairs = 0;
  uint64_t arc_hash = 0;
  size_t dimensions = 0;

  std::span<const uint32_t> slot;               ///< num_arcs; UINT32_MAX = none
  std::span<const double> degree_pseudo_label;  ///< per slot
  std::span<const uint8_t> degree_active;       ///< per slot
  std::span<const uint32_t> triad_offsets;      ///< num_slots + 1
  std::span<const graph::shard::TriadPair> triad_pairs;
};

/// See the file comment. Not movable (holds atomics and a mutex); factory
/// functions hand back a unique_ptr.
class ShardedStore {
 public:
  /// Creates a store under `options.dir`: writes and seals the graph file,
  /// lays out one file per shard, and fills the embedding sections with
  /// uniform draws from `rng` in [init_lo, init_hi), consuming draws in
  /// global row-major arc order (the ml::Matrix::FillUniform order). The
  /// connection sections start zero. Shard files are left unsealed for
  /// training; call Seal() when the parameters are final.
  static util::Result<std::unique_ptr<ShardedStore>> Create(
      const ShardedStoreOptions& options, const ShardedStoreInit& init,
      util::Rng& rng, float init_lo, float init_hi);

  /// Opens an existing, fully sealed store. Every file passes the shared
  /// container reader, train::container::Reader (header, meta CRC,
  /// per-section CRCs, canonical offsets, zero padding), and then its meta,
  /// section-size and CSR checks before any of it is trusted.
  static util::Result<std::unique_ptr<ShardedStore>> Open(
      const std::string& dir, size_t ram_budget_mb);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  // --- Geometry ---------------------------------------------------------
  size_t num_nodes() const { return static_cast<size_t>(meta_.num_nodes); }
  size_t num_arcs() const { return static_cast<size_t>(meta_.num_arcs); }
  size_t dimensions() const { return static_cast<size_t>(meta_.dimensions); }
  size_t num_shards() const { return static_cast<size_t>(meta_.num_shards); }
  uint64_t num_connected_pairs() const { return meta_.num_connected_pairs; }
  uint64_t arc_hash() const { return meta_.arc_hash; }
  const std::string& dir() const { return dir_; }

  /// Shard owning global arc `e` (contiguous uniform partition).
  size_t ShardOf(size_t e) const { return e / arcs_per_shard_; }
  uint64_t ShardArcBegin(size_t s) const { return shards_[s].arc_begin; }
  uint64_t ShardArcEnd(size_t s) const { return shards_[s].arc_end; }

  // --- Parameter rows (budget-managed) ----------------------------------
  /// Row e of the embedding matrix M. Admits the owning shard (evicting
  /// LRU shards past the budget) and stamps its LRU tick.
  std::span<float> EmbRow(size_t e) {
    Shard& s = shards_[ShardOf(e)];
    if (s.resident.load(std::memory_order_acquire) == 0) Admit(s);
    s.last_use.store(tick_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return {s.emb + (e - s.arc_begin) * meta_.dimensions,
            static_cast<size_t>(meta_.dimensions)};
  }

  /// Row e of the connection matrix N; same admission discipline.
  std::span<float> ConnRow(size_t e) {
    Shard& s = shards_[ShardOf(e)];
    if (s.resident.load(std::memory_order_acquire) == 0) Admit(s);
    s.last_use.store(tick_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return {s.conn + (e - s.arc_begin) * meta_.dimensions,
            static_cast<size_t>(meta_.dimensions)};
  }

  /// Advances the LRU clock; trainers call this once per SGD step so
  /// eviction order tracks recency of *steps*, not wall time.
  void NoteStep() { tick_.fetch_add(1, std::memory_order_relaxed); }

  // --- Pattern arena ----------------------------------------------------
  /// Pattern data of one undirected arc; `has` is false for arcs without a
  /// pattern slot. Triad pairs reference global arc indices.
  struct PatternView {
    bool has = false;
    bool degree_active = false;
    double pseudo_label = 0.0;
    std::span<const graph::shard::TriadPair> triads;
  };
  PatternView Pattern(size_t e) const {
    const Shard& s = shards_[ShardOf(e)];
    const uint32_t ls = s.slot[e - s.arc_begin];
    if (ls == UINT32_MAX) return {};
    PatternView view;
    view.has = true;
    view.degree_active = s.active[ls] != 0;
    view.pseudo_label = s.label[ls];
    view.triads = {s.triad_pairs + s.triad_off[ls],
                   s.triad_off[ls + 1] - s.triad_off[ls]};
    return view;
  }

  // --- Graph topology (mirrors core::TieIndex) --------------------------
  uint32_t Degree(uint32_t v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  std::span<const uint32_t> Neighbors(uint32_t v) const {
    return {adj_ + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  uint32_t ArcSrc(size_t e) const { return src_[e]; }
  uint32_t ArcDst(size_t e) const { return adj_[e]; }
  uint8_t ClassByte(size_t e) const { return classes_[e]; }
  /// Tie degree |c(e)| = Degree(dst) − 1 (see TieIndex::TieDegree).
  uint32_t TieDegree(size_t e) const { return Degree(adj_[e]) - 1; }

  /// Dense index of arc (u, v), or num_arcs() if absent.
  size_t TryIndexOf(uint32_t u, uint32_t v) const {
    if (u >= meta_.num_nodes) return num_arcs();
    const uint32_t* begin = adj_ + offsets_[u];
    const uint32_t* end = adj_ + offsets_[u + 1];
    const uint32_t* it = std::lower_bound(begin, end, v);
    if (it == end || *it != v) return num_arcs();
    return offsets_[u] + static_cast<size_t>(it - begin);
  }

  /// Samples a connected tie e' of arc e uniformly; returns num_arcs()
  /// when c(e) is empty. Replicates TieIndex::SampleConnectedTie exactly
  /// (same arithmetic, same single NextIndex draw) so a sharded nt=1 run
  /// consumes the identical RNG stream as the in-RAM trainer.
  template <typename RngT>
  size_t SampleConnectedTie(size_t e, RngT& rng) const {
    const uint32_t u = src_[e];
    const uint32_t v = adj_[e];
    const uint32_t deg = Degree(v);
    if (deg <= 1) return num_arcs();
    const size_t base = offsets_[v];
    const uint32_t* row = adj_ + base;
    const size_t rank_of_u =
        static_cast<size_t>(std::lower_bound(row, row + deg, u) - row);
    size_t pick = rng.NextIndex(deg - 1);
    if (pick >= rank_of_u) ++pick;
    return base + pick;
  }

  // --- Lifecycle --------------------------------------------------------
  /// Syncs every shard file and stamps section CRCs, the meta CRC, and the
  /// sealed flag — after which the files validate byte-for-byte and Open()
  /// accepts the store again. Idempotent.
  util::Status Seal();

  /// Residency accounting, exact (updated under the admit mutex).
  struct Stats {
    uint64_t admissions = 0;
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;      ///< currently admitted emb+conn bytes
    uint64_t max_resident_bytes = 0;  ///< high-water mark of the above
    uint64_t budget_bytes = 0;
  };
  Stats GetStats() const;

 private:
  struct Shard {
    serve::MmapRwFile file;
    uint64_t arc_begin = 0;
    uint64_t arc_end = 0;
    const uint32_t* slot = nullptr;
    const double* label = nullptr;
    const uint8_t* active = nullptr;
    const uint32_t* triad_off = nullptr;
    const graph::shard::TriadPair* triad_pairs = nullptr;
    float* emb = nullptr;
    float* conn = nullptr;
    uint64_t evict_offset = 0;  ///< file offset of the emb section
    uint64_t evict_bytes = 0;   ///< emb+conn payload bytes
    container::Layout layout;   ///< what Seal() restamps
    std::atomic<uint32_t> resident{0};
    std::atomic<uint64_t> last_use{0};

    /// Points the section fields into `file`, laid out as `file_layout`.
    void Wire(const graph::shard::ShardMeta& meta,
              container::Layout file_layout);
  };

  ShardedStore(std::string dir, size_t ram_budget_mb)
      : dir_(std::move(dir)),
        budget_bytes_(static_cast<uint64_t>(ram_budget_mb) * 1024 * 1024) {}

  /// Maps the sealed graph file, validates it, and wires meta_ and the
  /// topology pointers.
  util::Status MapGraph(const std::string& path);

  /// Maps one sealed shard file, validates every byte, and wires its
  /// section pointers into shards_[index].
  util::Status AttachShard(size_t index, const std::string& path);

  /// Admits `s` under the budget, evicting LRU resident shards first.
  void Admit(Shard& s);

  std::string dir_;
  graph::shard::GraphMeta meta_{};
  size_t arcs_per_shard_ = 1;
  uint64_t budget_bytes_ = 0;

  serve::MmapFile graph_file_;
  const uint64_t* offsets_ = nullptr;
  const uint32_t* adj_ = nullptr;
  const uint32_t* src_ = nullptr;
  const uint8_t* classes_ = nullptr;

  std::unique_ptr<Shard[]> shards_;

  std::atomic<uint64_t> tick_{0};
  mutable std::mutex admit_mu_;
  uint64_t resident_bytes_ = 0;      // guarded by admit_mu_
  uint64_t max_resident_bytes_ = 0;  // guarded by admit_mu_
  uint64_t admissions_ = 0;          // guarded by admit_mu_
  uint64_t evictions_ = 0;           // guarded by admit_mu_
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_SHARDED_STORE_H_
