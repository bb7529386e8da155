// ShardedStore: out-of-core storage for the E-step's parameter rows.
//
// A store is a directory in the DDSH container format (graph/shard_format.h)
// holding one file per shard: that shard's contiguous slice of the embedding
// matrix M and the connection matrix N. That is all it holds — the closure
// index, the pattern arena and the sampling tables stay on the trainer's
// heap, because they are small next to M and N, which are what the budget
// is for. The rows are served through MAP_SHARED mmap, so the heap never
// holds the |E|×l parameter matrices — the kernel's page cache does, and a
// fixed resident budget (`ram_budget_bytes`) bounds how much of it stays
// mapped in at once:
//
//   * The unit of residency is one page (sysconf(_SC_PAGESIZE)). A shard's
//     budgeted range runs from the page holding its first emb byte to the
//     end of the file, so every page a row can touch is exactly one unit.
//   * EmbRow/ConnRow admit every page the row spans (rows are l·4 bytes
//     and only 64-byte aligned, so a row can straddle a page boundary)
//     and mark resident ones referenced: one acquire load per page, and a
//     store of the reference byte only when it is clear. Admission faults
//     the page in writable at once (MADV_POPULATE_WRITE): a write fault
//     maps that page alone, while the first read of an unmapped page would
//     also map up to 16 of its neighbours from the page cache (fault-
//     around), pages the budget does not count. Admission over
//     budget runs a CLOCK under one mutex: a hand advances over the pages
//     of all shards, clears each reference byte it passes, and drops the
//     first unreferenced resident page (MADV_DONTNEED on a MAP_SHARED
//     mapping releases RSS without losing data — the page faults back in
//     from the page cache / disk on the next touch). A page starts
//     unreferenced, so a page touched once goes first and the hot head of
//     the noise distribution stays resident on its own.
//   * Readers may announce the rows they will read (StartReadAhead,
//     Announce*/Retire*): the E-step draws its steps ahead and announces
//     each row read of a drawn step until that step has trained it. The
//     CLOCK passes over a resident page that any reader has announced, as
//     it passes over a referenced one. After two laps that find only
//     such pages it evicts as it would without announcements, so
//     admission never blocks and never exceeds the budget. An
//     announcement admits nothing. A reader is asked to stop drawing
//     ahead (ReadAhead) once the pages it has announced reach its share
//     of the budget, budget pages ÷ readers; with a budget that holds
//     every page nothing is evicted, so nothing is announced.
//   * The returned spans stay valid for the store's lifetime even across
//     eviction (the mapping is never unmapped mid-run), so Hogwild workers
//     can race on rows exactly as they do on in-RAM matrices.
//
// State is two bytes per page (resident, referenced), plus, while readers
// announce, four bytes per page per reader: a count of its announced uses,
// which only that reader writes, with a plain relaxed load and store (no
// read-modify-write), so announcing costs a step no atomic operation. The
// accounting is exact (GetStats). Seal() releases every page before its
// CRC pass and drops each shard file after stamping it, so it holds the
// budget too.
// Create() fills the embedding sections with the caller's Rng in global
// row-major arc order — the exact draw order of ml::Matrix::FillUniform —
// which is what makes an nt=1 sharded run bit-identical to the in-RAM
// trainer regardless of the shard count.
//
// Not crash-atomic: shard files are live (unsealed) during training and
// Seal() must run before Open() will accept them again.

#ifndef DEEPDIRECT_TRAIN_SHARDED_STORE_H_
#define DEEPDIRECT_TRAIN_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/shard_format.h"
#include "kernels/kernels.h"
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

/// The geometry of a new store: what every shard's meta records.
struct ShardedStoreInit {
  uint64_t num_arcs = 0;
  /// Fingerprint of the network the rows belong to (core::HashTieIndex).
  uint64_t arc_hash = 0;
  size_t dimensions = 0;
};

/// See the file comment. Not movable (holds atomics and a mutex); factory
/// functions hand back a unique_ptr.
class ShardedStore {
 public:
  /// Creates a store under `options.dir`: lays out one file per shard and
  /// fills the embedding sections with uniform draws from `rng` in
  /// [init_lo, init_hi), consuming draws in global row-major arc order (the
  /// ml::Matrix::FillUniform order). The connection sections start zero.
  /// Shard files of an earlier store beyond the new shard count are
  /// removed; files of any other name stay. Shard files are left unsealed
  /// for training; call Seal() when the parameters are final.
  static util::Result<std::unique_ptr<ShardedStore>> Create(
      const ShardedStoreOptions& options, const ShardedStoreInit& init,
      util::Rng& rng, float init_lo, float init_hi);

  /// Opens an existing, fully sealed store. Every file passes the shared
  /// container reader, train::container::Reader (header, meta CRC,
  /// per-section CRCs, canonical offsets, zero padding), and then its meta
  /// and section-size checks before any of it is trusted. Shard 0 names
  /// the store geometry; a shard that disagrees with it, or whose arc range
  /// is not its place in the partition, is an InvalidArgument.
  static util::Result<std::unique_ptr<ShardedStore>> Open(
      const std::string& dir, uint64_t ram_budget_bytes);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  // --- Geometry ---------------------------------------------------------
  size_t num_arcs() const { return static_cast<size_t>(num_arcs_); }
  size_t dimensions() const { return static_cast<size_t>(dimensions_); }
  size_t num_shards() const { return static_cast<size_t>(num_shards_); }

  /// Shard owning global arc `e` (contiguous uniform partition).
  size_t ShardOf(size_t e) const { return e / arcs_per_shard_; }
  uint64_t ShardArcBegin(size_t s) const { return shards_[s].arc_begin; }
  uint64_t ShardArcEnd(size_t s) const { return shards_[s].arc_end; }

  // --- Parameter rows (budget-managed) ----------------------------------
  /// Row e of the embedding matrix M. Admits every page the row spans
  /// (the CLOCK evicts past the budget) and marks resident ones referenced.
  std::span<float> EmbRow(size_t e) { return Row(e, /*conn=*/false); }

  /// Row e of the connection matrix N; same admission discipline.
  std::span<float> ConnRow(size_t e) { return Row(e, /*conn=*/true); }

  /// Cache hints for row e of M or N that bypass residency: they admit
  /// nothing, the CLOCK does not see them, and a row whose page is not
  /// mapped in stays unmapped.
  void PrefetchEmbRow(size_t e) const { Prefetch(e, /*conn=*/false); }
  void PrefetchConnRow(size_t e) const { Prefetch(e, /*conn=*/true); }

  // --- Read-ahead (announced uses) --------------------------------------
  /// Sets up announced-use state for `workers` readers, each with none
  /// announced, and returns whether they should draw ahead. It is false
  /// when the budget holds every page, because then nothing is evicted
  /// and announcements are ignored. Call before the readers start.
  bool StartReadAhead(size_t workers);

  /// Whether `worker` should announce another step's rows: the pages it
  /// has announced are below its share of the budget (budget pages ÷
  /// workers).
  bool ReadAhead(size_t worker) const {
    return !readers_.empty() && readers_[worker].pages < read_ahead_share_;
  }

  /// One announced use by `worker` of every page of row e of M or N:
  /// until the matching Retire, the CLOCK passes over the page while it is
  /// resident. Admits nothing. Only `worker` itself may announce or
  /// retire under its index.
  void AnnounceEmbRow(size_t worker, size_t e) { Mark(worker, e, false, +1); }
  void AnnounceConnRow(size_t worker, size_t e) { Mark(worker, e, true, +1); }
  /// Ends one announced use of row e of M or N.
  void RetireEmbRow(size_t worker, size_t e) { Mark(worker, e, false, -1); }
  void RetireConnRow(size_t worker, size_t e) { Mark(worker, e, true, -1); }

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
    uint64_t announced_pages = 0;     ///< pages some reader has announced
  };
  Stats GetStats() const;

 private:
  struct Shard {
    serve::MmapRwFile file;
    uint64_t arc_begin = 0;
    uint64_t arc_end = 0;
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

  /// One reader's announced uses: a count per page, loaded and stored by
  /// that reader alone (never a read-modify-write), and read by the CLOCK.
  struct alignas(64) Reader {
    std::unique_ptr<std::atomic<uint32_t>[]> uses;
    size_t pages = 0;  ///< pages with a nonzero count; the reader's own
  };

  explicit ShardedStore(uint64_t ram_budget_bytes);

  /// Records the store geometry that every shard's meta repeats: the
  /// shard count, arc count, dimensions and arc hash of `meta`.
  void SetGeometry(const graph::shard::ShardMeta& meta);

  /// The meta of shard `index` under the store geometry.
  graph::shard::ShardMeta MetaOf(size_t index) const;

  /// Maps sealed shard file `index`, validates every byte, checks its meta
  /// against the geometry (which shard 0 sets), and appends it to shards_.
  util::Status AttachShard(size_t index, const std::string& path);

  /// Lays the shards' budgeted ranges end to end as the CLOCK's pages,
  /// all non-resident. Runs once every shard is wired.
  void InitPages();

  /// Row e of M (conn = false) or N, and the shard that holds it.
  std::pair<const Shard*, float*> Locate(size_t e, bool conn) const {
    const Shard& s = shards_[ShardOf(e)];
    return {&s, (conn ? s.conn : s.emb) + (e - s.arc_begin) * dimensions_};
  }

  /// The first and last of the CLOCK's pages that the row at `row` spans.
  std::pair<size_t, size_t> PagesOf(const Shard& s, const float* row) const {
    const uintptr_t at = reinterpret_cast<uintptr_t>(row) - s.page_origin;
    return {s.first_page + (at >> page_shift_),
            s.first_page + ((at + row_bytes_ - 1) >> page_shift_)};
  }

  std::span<float> Row(size_t e, bool conn) {
    const auto [s, row] = Locate(e, conn);
    Touch(*s, row);
    return {row, static_cast<size_t>(dimensions_)};
  }

  void Prefetch(size_t e, bool conn) const {
    kernels::PrefetchRow(
        {Locate(e, conn).second, static_cast<size_t>(dimensions_)});
  }

  /// Admits or marks referenced every page of the row at `row`.
  void Touch(const Shard& s, const float* row) {
    const auto [first, last] = PagesOf(s, row);
    for (size_t p = first; p <= last; ++p) {
      Page& page = pages_[p];
      if (page.resident.load(std::memory_order_acquire) == 0) {
        Admit(p);
      } else if (page.referenced.load(std::memory_order_relaxed) == 0) {
        page.referenced.store(1, std::memory_order_relaxed);
      }
    }
  }

  /// Adds `delta` (+1 or −1) to `worker`'s announced uses of every page of
  /// row e of M or N.
  void Mark(size_t worker, size_t e, bool conn, int delta) {
    if (readers_.empty()) return;
    Reader& reader = readers_[worker];
    const auto [s, row] = Locate(e, conn);
    const auto [first, last] = PagesOf(*s, row);
    for (size_t p = first; p <= last; ++p) {
      const uint32_t uses = reader.uses[p].load(std::memory_order_relaxed);
      const uint32_t now = uses + static_cast<uint32_t>(delta);
      if (uses == 0) {
        ++reader.pages;
      } else if (now == 0) {
        --reader.pages;
      }
      reader.uses[p].store(now, std::memory_order_relaxed);
    }
  }

  /// Whether some reader has announced page `p`.
  bool Announced(size_t p) const {
    for (const Reader& reader : readers_) {
      if (reader.uses[p].load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  /// Admits page `p` under the budget, evicting with the CLOCK first, and
  /// faults it in writable.
  void Admit(size_t p);

  /// The shard whose budgeted range holds page `p`, and p's file offset.
  std::pair<Shard*, uint64_t> LocatePage(size_t p);

  uint64_t num_arcs_ = 0;
  uint64_t dimensions_ = 0;
  uint64_t num_shards_ = 0;
  uint64_t arc_hash_ = 0;
  size_t arcs_per_shard_ = 1;
  uint64_t budget_bytes_ = 0;
  uint64_t page_bytes_ = 0;
  unsigned page_shift_ = 0;
  uint64_t row_bytes_ = 0;

  std::vector<Shard> shards_;
  std::unique_ptr<Page[]> pages_;
  size_t num_pages_ = 0;

  // Announced uses, one Reader per worker (StartReadAhead); empty when
  // the budget holds every page.
  std::vector<Reader> readers_;
  size_t read_ahead_share_ = 0;

  mutable std::mutex admit_mu_;
  size_t hand_ = 0;                  // guarded by admit_mu_
  uint64_t resident_bytes_ = 0;      // guarded by admit_mu_
  uint64_t max_resident_bytes_ = 0;  // guarded by admit_mu_
  uint64_t admissions_ = 0;          // guarded by admit_mu_
  uint64_t evictions_ = 0;           // guarded by admit_mu_
};

}  // namespace deepdirect::train

#endif  // DEEPDIRECT_TRAIN_SHARDED_STORE_H_
