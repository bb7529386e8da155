#include "train/sharded_store.h"

#include <bit>
#include <filesystem>
#include <utility>

#include "util/check.h"

namespace deepdirect::train {

namespace {

util::Status EnsureDir(const std::string& dir) {
  // Parents included: a nested --shard-dir must not require pre-creation.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) return util::Status::OK();
  return util::Status::IOError("cannot create directory " + dir + ": " +
                               ec.message());
}

/// ⌈a/b⌉ without the wrap of (a + b − 1)/b; b must be nonzero.
uint64_t CeilDiv(uint64_t a, uint64_t b) { return a / b + (a % b != 0); }

/// Shards that receive arcs when `num_arcs` arcs are cut into contiguous
/// ranges of ⌈num_arcs/num_shards⌉: ⌈N/⌈N/S⌉⌉, at most S. Both counts
/// must be nonzero.
uint64_t ShardsWithArcs(uint64_t num_arcs, uint64_t num_shards) {
  return CeilDiv(num_arcs, CeilDiv(num_arcs, num_shards));
}

}  // namespace

ShardedStore::ShardedStore(uint64_t ram_budget_bytes,
                           const ShardedStoreInit& init, size_t num_shards,
                           serve::MmapRwFile file)
    : num_arcs_(init.num_arcs),
      dimensions_(init.dimensions),
      // ⌈N/S⌉ arcs per shard can leave the last shards empty (or starting
      // past the last arc), so S shrinks to the shards that receive arcs.
      num_shards_(ShardsWithArcs(init.num_arcs, num_shards)),
      arcs_per_shard_(CeilDiv(init.num_arcs, num_shards)),
      budget_bytes_(ram_budget_bytes),
      page_bytes_(serve::MmapRwFile::PageSize()),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_bytes_))),
      row_bytes_(init.dimensions * sizeof(float)),
      file_(std::move(file)),
      emb_(static_cast<float*>(file_.data())),
      conn_(emb_ + num_arcs_ * dimensions_),
      num_pages_(static_cast<size_t>(CeilDiv(file_.size(), page_bytes_))) {
  DD_CHECK(std::has_single_bit(page_bytes_));
  pages_.reset(new Page[num_pages_]);
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Create(
    const ShardedStoreOptions& options, const ShardedStoreInit& init,
    util::Rng& rng, float init_lo, float init_hi) {
  DD_CHECK_GT(init.num_arcs, 0u);
  DD_CHECK_GT(options.num_shards, 0u);
  DD_CHECK_GT(init.dimensions, 0u);
  DD_RETURN_NOT_OK(EnsureDir(options.dir));
  const uint64_t m_bytes = init.num_arcs * init.dimensions * sizeof(float);
  auto mapped =
      serve::MmapRwFile::Create(options.dir + "/" + kFileName, 2 * m_bytes,
                                serve::MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  std::unique_ptr<ShardedStore> store(
      new ShardedStore(options.ram_budget_bytes, init, options.num_shards,
                       std::move(mapped).value()));

  // M in row-major arc order is the ml::Matrix::FillUniform draw sequence.
  // Each chunk is a budget's worth of whole pages (at least one) and is
  // released once written, so creation keeps to the budget; N stays zero
  // (the file is a sparse hole there).
  const uint64_t chunk = std::max(
      store->page_bytes_, store->budget_bytes_ & ~(store->page_bytes_ - 1));
  for (uint64_t begin = 0; begin < m_bytes; begin += chunk) {
    const uint64_t end = std::min(m_bytes, begin + chunk);
    for (uint64_t i = begin / sizeof(float); i < end / sizeof(float); ++i) {
      store->emb_[i] = static_cast<float>(rng.NextDoubleIn(init_lo, init_hi));
    }
    store->file_.DropResident(begin, end - begin);
  }
  return store;
}

bool ShardedStore::StartReadAhead(size_t workers) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  const uint64_t budget_pages = budget_bytes_ >> page_shift_;
  readers_.clear();
  read_ahead_share_ = 0;
  if (budget_pages >= num_pages_ || workers == 0) return false;
  readers_.resize(workers);
  for (Reader& reader : readers_) {
    reader.uses.reset(new std::atomic<uint32_t>[num_pages_]());
  }
  read_ahead_share_ = static_cast<size_t>(budget_pages / workers);
  return read_ahead_share_ > 0;
}

void ShardedStore::Admit(size_t p) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  Page& incoming = pages_[p];
  if (incoming.resident.load(std::memory_order_relaxed) != 0) return;  // raced
  // Advance the hand until the incoming page fits. It never evicts the
  // incoming page (not resident yet), so a budget below one page degrades
  // to exactly one resident page. A lap clears every reference byte it
  // passes, and an announced page is passed over for two laps only, so
  // unless rows keep being touched meanwhile, the hand finds a victim
  // within three laps.
  const size_t patience = 2 * num_pages_;
  for (size_t passed = 0;
       resident_bytes_ > 0 && resident_bytes_ + page_bytes_ > budget_bytes_;
       ++passed) {
    const size_t q = hand_;
    hand_ = hand_ + 1 == num_pages_ ? 0 : hand_ + 1;
    Page& page = pages_[q];
    if (page.resident.load(std::memory_order_relaxed) == 0) continue;
    if (page.referenced.load(std::memory_order_relaxed) != 0) {
      page.referenced.store(0, std::memory_order_relaxed);
      continue;
    }
    if (passed < patience && Announced(q)) continue;
    page.resident.store(0, std::memory_order_release);
    file_.DropResident(uint64_t{q} << page_shift_, 1);
    resident_bytes_ -= page_bytes_;
    ++evictions_;
  }
  file_.Populate(uint64_t{p} << page_shift_, 1);
  resident_bytes_ += page_bytes_;
  max_resident_bytes_ = std::max(max_resident_bytes_, resident_bytes_);
  ++admissions_;
  incoming.resident.store(1, std::memory_order_release);
}

void ShardedStore::Release() {
  std::lock_guard<std::mutex> lock(admit_mu_);
  file_.DropResident(0, file_.size());
  for (size_t p = 0; p < num_pages_; ++p) {
    pages_[p].resident.store(0, std::memory_order_relaxed);
    pages_[p].referenced.store(0, std::memory_order_relaxed);
  }
  resident_bytes_ = 0;
}

ShardedStore::Stats ShardedStore::GetStats() const {
  std::lock_guard<std::mutex> lock(admit_mu_);
  Stats stats;
  stats.admissions = admissions_;
  stats.evictions = evictions_;
  stats.resident_bytes = resident_bytes_;
  stats.max_resident_bytes = max_resident_bytes_;
  stats.budget_bytes = budget_bytes_;
  for (size_t p = 0; p < num_pages_; ++p) stats.announced_pages += Announced(p);
  return stats;
}

}  // namespace deepdirect::train
