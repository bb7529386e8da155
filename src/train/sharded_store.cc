#include "train/sharded_store.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "train/container.h"
#include "util/check.h"

namespace deepdirect::train {

namespace fmt = graph::shard;

namespace {

util::Status EnsureDir(const std::string& dir) {
  // Parents included: a nested --shard-dir must not require pre-creation.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) return util::Status::OK();
  return util::Status::IOError("cannot create directory " + dir + ": " +
                               ec.message());
}

/// Expected per-section payload sizes of a shard file with this meta.
util::Result<std::vector<uint64_t>> ShardSectionSizes(
    const fmt::ShardMeta& meta) {
  std::vector<uint64_t> sizes(std::size(fmt::kShardSectionOrder));
  sizes[0] = sizeof(fmt::ShardMeta);
  uint64_t cells = 0;
  DD_RETURN_NOT_OK(container::CheckedMul(meta.arc_end - meta.arc_begin,
                                         meta.dimensions, "dimensions",
                                         &cells));
  DD_RETURN_NOT_OK(
      container::CheckedMul(cells, sizeof(float), "dimensions", &sizes[1]));
  sizes[2] = sizes[1];
  return sizes;
}

/// Removes the shard files of an earlier store in `dir` that a store of
/// `num_shards` shards does not rewrite. A store numbers its files from 0
/// without gaps, so the sweep stops at the first name that is not there.
util::Status RemoveStaleShards(const std::string& dir, size_t num_shards) {
  for (size_t s = num_shards;; ++s) {
    const std::string path = dir + "/" + fmt::ShardFileName(s);
    std::error_code ec;
    if (std::filesystem::remove(path, ec)) continue;
    if (!ec) return util::Status::OK();
    return util::Status::IOError("cannot remove stale shard file " + path +
                                 ": " + ec.message());
  }
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

ShardedStore::ShardedStore(uint64_t ram_budget_bytes)
    : budget_bytes_(ram_budget_bytes),
      page_bytes_(serve::MmapRwFile::PageSize()),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_bytes_))) {
  DD_CHECK(std::has_single_bit(page_bytes_));
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Create(
    const ShardedStoreOptions& options, const ShardedStoreInit& init,
    util::Rng& rng, float init_lo, float init_hi) {
  DD_CHECK_GT(init.num_arcs, 0u);
  DD_CHECK_GT(options.num_shards, 0u);
  DD_CHECK_GT(init.dimensions, 0u);
  DD_RETURN_NOT_OK(EnsureDir(options.dir));

  std::unique_ptr<ShardedStore> store(
      new ShardedStore(options.ram_budget_bytes));
  fmt::ShardMeta geometry{};
  // ⌈N/S⌉ arcs per shard can leave the last shards empty (or starting past
  // the last arc), so S shrinks to the shards that receive arcs. Any S that
  // leaves no shard empty is kept as is.
  geometry.num_shards = ShardsWithArcs(init.num_arcs, options.num_shards);
  geometry.num_arcs = init.num_arcs;
  geometry.dimensions = init.dimensions;
  geometry.arc_hash = init.arc_hash;
  store->SetGeometry(geometry);
  DD_RETURN_NOT_OK(RemoveStaleShards(options.dir, store->num_shards()));

  // Shards are laid out in arc order, so filling emb shard by shard
  // consumes the exact draw sequence of ml::Matrix::FillUniform on the
  // whole matrix.
  store->shards_.reserve(store->num_shards());
  for (size_t s = 0; s < store->num_shards(); ++s) {
    const fmt::ShardMeta meta = store->MetaOf(s);
    const auto sizes = ShardSectionSizes(meta);
    if (!sizes.ok()) return sizes.status();
    container::Layout layout = container::MakeLayout(sizes.value());
    const std::string path = options.dir + "/" + fmt::ShardFileName(s);
    auto mapped = serve::MmapRwFile::Create(path, layout.file_size,
                                            serve::MmapAdvice::kRandom);
    if (!mapped.ok()) return mapped.status();
    Shard& shard = store->shards_.emplace_back();
    shard.file = std::move(mapped).value();
    shard.Wire(meta, std::move(layout));
    auto* base = static_cast<unsigned char*>(shard.file.data());
    std::memcpy(base + shard.layout.offsets[0], &meta, sizeof(meta));
    const uint64_t values = (meta.arc_end - meta.arc_begin) * init.dimensions;
    for (uint64_t i = 0; i < values; ++i) {
      shard.emb[i] = static_cast<float>(rng.NextDoubleIn(init_lo, init_hi));
    }
    // conn stays zero (the file is a sparse hole).
    container::Stamp(fmt::kShardFormat, shard.layout, base, shard.file.size(),
                     /*live=*/true);
    // Creation touched every page; start training with nothing resident
    // so admission accounting sees the true working set.
    shard.file.DropResident(0, shard.file.size());
  }
  store->InitPages();
  return store;
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const std::string& dir, uint64_t ram_budget_bytes) {
  std::unique_ptr<ShardedStore> store(new ShardedStore(ram_budget_bytes));
  // Shard 0 sets the geometry, and with it the shard count.
  DD_RETURN_NOT_OK(store->AttachShard(0, dir + "/" + fmt::ShardFileName(0)));
  for (size_t s = 1; s < store->num_shards(); ++s) {
    DD_RETURN_NOT_OK(store->AttachShard(s, dir + "/" + fmt::ShardFileName(s)));
  }
  store->InitPages();
  return store;
}

void ShardedStore::SetGeometry(const fmt::ShardMeta& meta) {
  num_shards_ = meta.num_shards;
  num_arcs_ = meta.num_arcs;
  dimensions_ = meta.dimensions;
  arc_hash_ = meta.arc_hash;
  arcs_per_shard_ = CeilDiv(num_arcs_, num_shards_);
  row_bytes_ = dimensions_ * sizeof(float);
}

fmt::ShardMeta ShardedStore::MetaOf(size_t index) const {
  return {index,
          num_shards_,
          num_arcs_,
          dimensions_,
          arc_hash_,
          index * arcs_per_shard_,
          std::min<uint64_t>(num_arcs_, (index + 1) * arcs_per_shard_)};
}

util::Status ShardedStore::AttachShard(size_t index,
                                       const std::string& path) {
  auto mapped = serve::MmapRwFile::Open(path, serve::MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  serve::MmapRwFile file = std::move(mapped).value();
  auto read = container::Reader::Open(fmt::kShardFormat, path, file.data(),
                                      file.size());
  if (!read.ok()) return read.status();
  const container::Reader& reader = read.value();
  fmt::ShardMeta meta;
  DD_RETURN_NOT_OK(reader.ReadMeta(&meta));
  if (index == 0) {
    // Create() never writes a shard without arcs, so a count that would
    // leave one empty is a defect.
    if (meta.num_arcs == 0 || meta.num_shards == 0 || meta.dimensions == 0 ||
        ShardsWithArcs(meta.num_arcs, meta.num_shards) != meta.num_shards) {
      return reader.Defect("degenerate store geometry");
    }
    SetGeometry(meta);
  }
  if (meta != MetaOf(index)) {
    return reader.Defect(
        "shard meta disagrees with the store geometry of shard 0 or with "
        "its own place in the partition");
  }
  const auto sizes = ShardSectionSizes(meta);
  DD_RETURN_NOT_OK(reader.CheckSizes(sizes));
  Shard& shard = shards_.emplace_back();
  shard.file = std::move(file);
  shard.Wire(meta, container::MakeLayout(sizes.value()));
  return util::Status::OK();
}

void ShardedStore::Shard::Wire(const fmt::ShardMeta& meta,
                               container::Layout file_layout) {
  layout = std::move(file_layout);
  auto* base = static_cast<unsigned char*>(file.data());
  arc_begin = meta.arc_begin;
  arc_end = meta.arc_end;
  emb = reinterpret_cast<float*>(base + layout.offsets[1]);
  conn = reinterpret_cast<float*>(base + layout.offsets[2]);
}

void ShardedStore::InitPages() {
  num_pages_ = 0;
  for (Shard& shard : shards_) {
    shard.page_offset = shard.layout.offsets[1] & ~(page_bytes_ - 1);
    shard.page_origin =
        reinterpret_cast<uintptr_t>(shard.file.data()) + shard.page_offset;
    shard.first_page = num_pages_;
    num_pages_ += static_cast<size_t>(
        (shard.layout.file_size - shard.page_offset + page_bytes_ - 1) >>
        page_shift_);
  }
  pages_.reset(new Page[num_pages_]);
}

std::pair<ShardedStore::Shard*, uint64_t> ShardedStore::LocatePage(
    size_t p) {
  // The page's shard is the last one whose range starts at or before p.
  Shard& shard = *(std::upper_bound(shards_.begin(), shards_.end(), p,
                                    [](size_t index, const Shard& s) {
                                      return index < s.first_page;
                                    }) -
                   1);
  return {&shard, shard.page_offset + ((p - shard.first_page) << page_shift_)};
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
    const auto [victim, at] = LocatePage(q);
    page.resident.store(0, std::memory_order_release);
    victim->file.DropResident(at, 1);
    resident_bytes_ -= page_bytes_;
    ++evictions_;
  }
  const auto [owner, at] = LocatePage(p);
  owner->file.Populate(at, 1);
  resident_bytes_ += page_bytes_;
  max_resident_bytes_ = std::max(max_resident_bytes_, resident_bytes_);
  ++admissions_;
  incoming.resident.store(1, std::memory_order_release);
}

util::Status ShardedStore::Seal() {
  // The CRC pass faults in whole shard files without admission; starting
  // from nothing resident and dropping each file once stamped keeps it to
  // one shard's pages at a time. The release is not an eviction.
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    for (Shard& shard : shards_) shard.file.DropResident(0, shard.file.size());
    for (size_t p = 0; p < num_pages_; ++p) {
      pages_[p].resident.store(0, std::memory_order_relaxed);
      pages_[p].referenced.store(0, std::memory_order_relaxed);
    }
    resident_bytes_ = 0;
  }
  for (Shard& shard : shards_) {
    // Sequential sweep for the CRC pass, back to random afterwards.
    shard.file.Advise(0, shard.file.size(), serve::MmapAdvice::kSequential);
    container::Stamp(fmt::kShardFormat, shard.layout, shard.file.data(),
                     shard.file.size(), /*live=*/false);
    DD_RETURN_NOT_OK(shard.file.Sync());
    shard.file.DropResident(0, shard.file.size());
    shard.file.Advise(0, shard.file.size(), serve::MmapAdvice::kRandom);
  }
  return util::Status::OK();
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
