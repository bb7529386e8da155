// ShardedStore: out-of-core storage for the E-step's parameter rows.
//
// A store is one raw file, kFileName under the store directory, holding
// the |E|×l embedding matrix M and then the connection matrix N: row e of
// M at byte e·l·4 and row e of N at |E|·l·4 + e·l·4, with no header, meta
// or checksums. The file is working memory, not an artifact: nothing
// reads it back after the run (a model exports DDS1, a checkpoint would
// write DDCK from the rows), so a crash mid-run leaves a file that the
// next run truncates and refills. The closure index, the pattern arena
// and the sampling tables stay on the trainer's heap, because they are
// small next to M and N, which are what the budget is for. The rows are
// served through one MAP_SHARED mapping, so the heap never holds the
// parameter matrices — the kernel's page cache does, and a fixed
// resident budget (`ram_budget_bytes`) bounds how much of it stays mapped
// in at once:
//
//   * The unit of residency is one page (sysconf(_SC_PAGESIZE)); the
//     CLOCK's page p is the file's bytes [p·page, (p+1)·page).
//   * EmbRow/ConnRow admit every page the row spans (rows are l·4 bytes,
//     so a row can straddle a page boundary) and mark resident ones
//     referenced: one acquire load per page, and a store of the reference
//     byte only when it is clear. Admission faults the page in writable at
//     once (MADV_POPULATE_WRITE): a write fault maps that page alone,
//     while the first read of an unmapped page would also map up to 16 of
//     its neighbours from the page cache (fault-around), pages the budget
//     does not count. Admission over budget runs a CLOCK under one mutex:
//     a hand advances over the pages, clears each reference byte it
//     passes, and drops the first unreferenced resident page
//     (MADV_DONTNEED on a MAP_SHARED mapping releases RSS without losing
//     data — the page faults back in from the page cache / disk on the
//     next touch). A page starts unreferenced, so a page touched once goes
//     first and the hot head of the noise distribution stays resident on
//     its own.
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
// Shards are only the contiguous arc ranges that shard-affine Hogwild
// samples from (ShardArcBegin/ShardArcEnd); they do not change where a
// row lives.
//
// State is two bytes per page (resident, referenced), plus, while readers
// announce, four bytes per page per reader: a count of its announced uses,
// which only that reader writes, with a plain relaxed load and store (no
// read-modify-write), so announcing costs a step no atomic operation. The
// accounting is exact (GetStats).
// Create() fills M with the caller's Rng in row-major arc order — the
// exact draw order of ml::Matrix::FillUniform — which is what makes an
// nt=1 sharded run bit-identical to the in-RAM trainer regardless of the
// shard count. It writes a budget's worth of pages at a time and releases
// each chunk, so creation holds the budget too.

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

#include "kernels/kernels.h"
#include "serve/mmap_file.h"
#include "util/random.h"
#include "util/status.h"

namespace deepdirect::train {

/// Placement parameters of a new store.
struct ShardedStoreOptions {
  std::string dir;            ///< store directory (created if missing)
  size_t num_shards = 1;      ///< contiguous arc ranges for Hogwild
  /// Resident M+N budget, counted in whole pages.
  uint64_t ram_budget_bytes = uint64_t{256} << 20;
};

/// The geometry of a new store.
struct ShardedStoreInit {
  uint64_t num_arcs = 0;
  size_t dimensions = 0;
};

/// See the file comment. Not movable (holds atomics and a mutex); the
/// factory hands back a unique_ptr.
class ShardedStore {
 public:
  /// The row file's name within the store directory.
  static constexpr const char* kFileName = "rows.f32";

  /// Creates (or truncates) the row file under `options.dir` and fills M
  /// with uniform draws from `rng` in [init_lo, init_hi), consuming draws
  /// in row-major arc order (the ml::Matrix::FillUniform order). N starts
  /// zero. Nothing is resident on return.
  static util::Result<std::unique_ptr<ShardedStore>> Create(
      const ShardedStoreOptions& options, const ShardedStoreInit& init,
      util::Rng& rng, float init_lo, float init_hi);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  // --- Geometry ---------------------------------------------------------
  size_t num_arcs() const { return static_cast<size_t>(num_arcs_); }
  size_t dimensions() const { return static_cast<size_t>(dimensions_); }
  /// The shards that receive arcs when the requested count cuts the arcs
  /// into contiguous ranges of ⌈num_arcs/count⌉; none is empty.
  size_t num_shards() const { return static_cast<size_t>(num_shards_); }
  uint64_t ShardArcBegin(size_t s) const { return s * arcs_per_shard_; }
  uint64_t ShardArcEnd(size_t s) const {
    return std::min(num_arcs_, (s + 1) * arcs_per_shard_);
  }

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

  /// Drops every admitted page and clears every reference byte (a
  /// release, not an eviction): nothing is resident on return, no data is
  /// lost, and the next row access admits afresh.
  void Release();

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

  ShardedStore(uint64_t ram_budget_bytes, const ShardedStoreInit& init,
               size_t num_shards, serve::MmapRwFile file);

  /// Row e of M (conn = false) or N.
  float* Locate(size_t e, bool conn) const {
    return (conn ? conn_ : emb_) + e * dimensions_;
  }

  /// The first and last of the CLOCK's pages that the row at `row` spans.
  std::pair<size_t, size_t> PagesOf(const float* row) const {
    const uint64_t at = static_cast<uint64_t>(row - emb_) * sizeof(float);
    return {at >> page_shift_, (at + row_bytes_ - 1) >> page_shift_};
  }

  std::span<float> Row(size_t e, bool conn) {
    float* row = Locate(e, conn);
    Touch(row);
    return {row, static_cast<size_t>(dimensions_)};
  }

  void Prefetch(size_t e, bool conn) const {
    kernels::PrefetchRow({Locate(e, conn), static_cast<size_t>(dimensions_)});
  }

  /// Admits or marks referenced every page of the row at `row`.
  void Touch(const float* row) {
    const auto [first, last] = PagesOf(row);
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
    const auto [first, last] = PagesOf(Locate(e, conn));
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

  uint64_t num_arcs_ = 0;
  uint64_t dimensions_ = 0;
  uint64_t num_shards_ = 0;
  uint64_t arcs_per_shard_ = 1;
  uint64_t budget_bytes_ = 0;
  uint64_t page_bytes_ = 0;
  unsigned page_shift_ = 0;
  uint64_t row_bytes_ = 0;

  serve::MmapRwFile file_;
  float* emb_ = nullptr;   ///< M, at the start of the mapping
  float* conn_ = nullptr;  ///< N, right after M
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
