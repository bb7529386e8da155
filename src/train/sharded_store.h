// ShardedStore: out-of-core storage for the E-step's working set.
//
// A store is a directory in the DDSH container format (graph/shard_format.h):
// one sealed graph file holding the symmetric-closure CSR, and one file per
// shard holding that shard's slice of the embedding matrix M, the
// connection matrix N, and the pattern arena for its undirected arcs. All
// of it is served through MAP_SHARED mmap, so the heap never holds the
// |E|×l parameter matrices — the kernel's page cache does, and a fixed
// resident budget (`ram_budget_bytes`) bounds how much of it stays mapped
// in at once:
//
//   * The unit of residency is one page (sysconf(_SC_PAGESIZE)). A shard's
//     budgeted range runs from the page holding its first emb byte to the
//     end of the file, so every page a row can touch is exactly one unit.
//   * EmbRow/ConnRow admit every page the row spans (rows are l·4 bytes
//     and only 64-byte aligned, so a row can straddle a page boundary)
//     and mark resident ones referenced: one acquire load per page, and a
//     store of the reference byte only when it is clear. Admission over
//     budget runs a CLOCK under one mutex: a hand advances over the pages
//     of all shards, clears each reference byte it passes, and drops the
//     first unreferenced resident page (MADV_DONTNEED on a MAP_SHARED
//     mapping releases RSS without losing data — the page faults back in
//     from the page cache / disk on the next touch). A page starts
//     unreferenced, so a page touched once goes first and the hot head of
//     the noise distribution stays resident on its own.
//   * The returned spans stay valid for the store's lifetime even across
//     eviction (the mapping is never unmapped mid-run), so Hogwild workers
//     can race on rows exactly as they do on in-RAM matrices.
//   * Graph topology (offsets/adj/src/classes) is served from a read-only
//     MADV_RANDOM mapping of the sealed graph file and is not counted
//     against the budget; neither is the pattern arena (both are small
//     next to M and N and always hot).
//
// State is two bytes per page (resident, referenced), and the accounting
// is exact (GetStats). Seal() releases every page before its CRC pass and
// drops each shard file after stamping it, so it holds the budget too.
// Create() fills the embedding sections with the caller's Rng in global
// row-major arc order — the exact draw order of ml::Matrix::FillUniform —
// which is what makes an nt=1 sharded run bit-identical to the in-RAM
// trainer regardless of the shard count.
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
  /// Resident emb+conn budget across shards, counted in whole pages.
  uint64_t ram_budget_bytes = uint64_t{256} << 20;
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
      const std::string& dir, uint64_t ram_budget_bytes);

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
  /// Row e of the embedding matrix M. Admits every page the row spans
  /// (the CLOCK evicts past the budget) and marks resident ones referenced.
  std::span<float> EmbRow(size_t e) {
    const Shard& s = shards_[ShardOf(e)];
    float* row = s.emb + (e - s.arc_begin) * meta_.dimensions;
    Touch(s, row);
    return {row, static_cast<size_t>(meta_.dimensions)};
  }

  /// Row e of the connection matrix N; same admission discipline.
  std::span<float> ConnRow(size_t e) {
    const Shard& s = shards_[ShardOf(e)];
    float* row = s.conn + (e - s.arc_begin) * meta_.dimensions;
    Touch(s, row);
    return {row, static_cast<size_t>(meta_.dimensions)};
  }

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
  /// accepts the store again. Releases every admitted page first (not an
  /// eviction) and drops each shard file once it is stamped, so the CRC
  /// pass maps one shard at a time and nothing is resident on return; the
  /// next row access admits afresh. Idempotent.
  util::Status Seal();

  /// Residency accounting in pages, exact (updated under the admit mutex).
  struct Stats {
    uint64_t admissions = 0;          ///< pages admitted
    uint64_t evictions = 0;           ///< pages evicted by the CLOCK
    uint64_t resident_bytes = 0;      ///< admitted pages × page size
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
    container::Layout layout;  ///< what Seal() restamps
    /// The budgeted range: whole pages from the one holding the first emb
    /// byte to the end of the file, numbered from first_page among the
    /// CLOCK's pages.
    uint64_t page_offset = 0;   ///< file offset of the range's first page
    uintptr_t page_origin = 0;  ///< its address in the mapping
    size_t first_page = 0;

    /// Points the section fields into `file`, laid out as `file_layout`.
    void Wire(const graph::shard::ShardMeta& meta,
              container::Layout file_layout);
  };

  /// Residency state of one page; two bytes.
  struct Page {
    std::atomic<uint8_t> resident{0};
    std::atomic<uint8_t> referenced{0};
  };

  ShardedStore(std::string dir, uint64_t ram_budget_bytes);

  /// Maps the sealed graph file, validates it, and wires meta_ and the
  /// topology pointers.
  util::Status MapGraph(const std::string& path);

  /// Maps one sealed shard file, validates every byte, and wires its
  /// section pointers into shards_[index].
  util::Status AttachShard(size_t index, const std::string& path);

  /// Lays the shards' budgeted ranges end to end as the CLOCK's pages,
  /// all non-resident. Runs once every shard is wired.
  void InitPages();

  /// Admits or marks referenced every page of the row at `row`.
  void Touch(const Shard& s, const float* row) {
    const uintptr_t at = reinterpret_cast<uintptr_t>(row) - s.page_origin;
    const size_t first = s.first_page + (at >> page_shift_);
    const size_t last = s.first_page + ((at + row_bytes_ - 1) >> page_shift_);
    for (size_t p = first; p <= last; ++p) {
      Page& page = pages_[p];
      if (page.resident.load(std::memory_order_acquire) == 0) {
        Admit(p);
      } else if (page.referenced.load(std::memory_order_relaxed) == 0) {
        page.referenced.store(1, std::memory_order_relaxed);
      }
    }
  }

  /// Admits page `p` under the budget, evicting with the CLOCK first.
  void Admit(size_t p);

  std::string dir_;
  graph::shard::GraphMeta meta_{};
  size_t arcs_per_shard_ = 1;
  uint64_t budget_bytes_ = 0;
  uint64_t page_bytes_ = 0;
  unsigned page_shift_ = 0;
  uint64_t row_bytes_ = 0;

  serve::MmapFile graph_file_;
  const uint64_t* offsets_ = nullptr;
  const uint32_t* adj_ = nullptr;
  const uint32_t* src_ = nullptr;
  const uint8_t* classes_ = nullptr;

  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<Page[]> pages_;
  size_t num_pages_ = 0;

  mutable std::mutex admit_mu_;
  size_t hand_ = 0;                  // guarded by admit_mu_
  uint64_t resident_bytes_ = 0;      // guarded by admit_mu_
  uint64_t max_resident_bytes_ = 0;  // guarded by admit_mu_
  uint64_t admissions_ = 0;          // guarded by admit_mu_
  uint64_t evictions_ = 0;           // guarded by admit_mu_
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_SHARDED_STORE_H_
