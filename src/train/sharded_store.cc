#include "train/sharded_store.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <filesystem>

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

/// Expected per-section payload sizes of a graph file with this meta.
util::Result<std::vector<uint64_t>> GraphSectionSizes(
    const fmt::GraphMeta& meta) {
  std::vector<uint64_t> sizes(fmt::kGraphSectionCount);
  sizes[0] = sizeof(fmt::GraphMeta);
  // num_nodes + 1 wraps only at 2^64 - 1, to an empty offsets section that
  // CheckCsr rejects.
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_nodes + 1, sizeof(uint64_t),
                                         "num_nodes", &sizes[1]));
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_arcs, sizeof(uint32_t),
                                         "num_arcs", &sizes[2]));
  sizes[3] = sizes[2];
  sizes[4] = meta.num_arcs;
  return sizes;
}

/// Expected per-section payload sizes of a shard file with this meta.
util::Result<std::vector<uint64_t>> ShardSectionSizes(
    const fmt::ShardMeta& meta) {
  const uint64_t arcs = meta.arc_end - meta.arc_begin;
  std::vector<uint64_t> sizes(fmt::kShardSectionCount);
  sizes[0] = sizeof(fmt::ShardMeta);
  DD_RETURN_NOT_OK(container::CheckedMul(arcs, sizeof(uint32_t), "arc_end",
                                         &sizes[1]));
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_slots, sizeof(double),
                                         "num_slots", &sizes[2]));
  sizes[3] = meta.num_slots;
  // num_slots * 8 fits, so num_slots + 1 cannot wrap.
  if (meta.num_slots != 0) {
    DD_RETURN_NOT_OK(container::CheckedMul(
        meta.num_slots + 1, sizeof(uint32_t), "num_slots", &sizes[4]));
  }
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_triad_pairs,
                                         sizeof(fmt::TriadPair),
                                         "num_triad_pairs", &sizes[5]));
  uint64_t cells = 0;
  DD_RETURN_NOT_OK(
      container::CheckedMul(arcs, meta.dimensions, "dimensions", &cells));
  DD_RETURN_NOT_OK(
      container::CheckedMul(cells, sizeof(float), "dimensions", &sizes[6]));
  sizes[7] = sizes[6];
  return sizes;
}

/// Shards that receive arcs when `num_arcs` arcs are cut into contiguous
/// ranges of ⌈num_arcs/num_shards⌉: ⌈N/⌈N/S⌉⌉, at most S. Both counts
/// must be nonzero.
uint64_t ShardsWithArcs(uint64_t num_arcs, uint64_t num_shards) {
  const auto ceil_div = [](uint64_t a, uint64_t b) {
    return a / b + (a % b != 0 ? 1 : 0);
  };
  return ceil_div(num_arcs, ceil_div(num_arcs, num_shards));
}

}  // namespace

ShardedStore::ShardedStore(std::string dir, uint64_t ram_budget_bytes)
    : dir_(std::move(dir)),
      budget_bytes_(ram_budget_bytes),
      page_bytes_(serve::MmapRwFile::PageSize()),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_bytes_))) {
  DD_CHECK(std::has_single_bit(page_bytes_));
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Create(
    const ShardedStoreOptions& options, const ShardedStoreInit& init,
    util::Rng& rng, float init_lo, float init_hi) {
  const size_t num_arcs = init.adjacency.size();
  DD_CHECK_GT(num_arcs, 0u);
  DD_CHECK_GT(options.num_shards, 0u);
  DD_CHECK_GT(init.dimensions, 0u);
  DD_CHECK_EQ(init.sources.size(), num_arcs);
  DD_CHECK_EQ(init.classes.size(), num_arcs);
  DD_CHECK_EQ(init.slot.size(), num_arcs);
  DD_CHECK_EQ(init.degree_pseudo_label.size(), init.degree_active.size());
  DD_CHECK_EQ(init.triad_offsets.size(), init.degree_pseudo_label.size() + 1);
  DD_RETURN_NOT_OK(EnsureDir(options.dir));

  std::unique_ptr<ShardedStore> store(
      new ShardedStore(options.dir, options.ram_budget_bytes));

  fmt::GraphMeta meta{};
  meta.kind = fmt::kGraphKind;
  meta.num_nodes = init.offsets.size() - 1;
  meta.num_arcs = num_arcs;
  meta.dimensions = init.dimensions;
  // ⌈N/S⌉ arcs per shard can leave the last shards empty (or starting past
  // the last arc), so S shrinks to the shards that receive arcs. Any S that
  // leaves no shard empty is kept as is.
  meta.num_shards = ShardsWithArcs(num_arcs, options.num_shards);
  meta.num_connected_pairs = init.num_connected_pairs;
  meta.arc_hash = init.arc_hash;

  // --- Graph file: built in memory, written atomically, sealed at birth.
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  const container::Payload graph[fmt::kGraphSectionCount] = {
      {&meta, sizeof(meta)},
      {init.offsets.data(), init.offsets.size_bytes()},
      {init.adjacency.data(), init.adjacency.size_bytes()},
      {init.sources.data(), init.sources.size_bytes()},
      {init.classes.data(), init.classes.size_bytes()},
  };
  const std::string graph_path = options.dir + "/" + fmt::GraphFileName();
  DD_RETURN_NOT_OK(container::WriteFile(fmt::kGraphFormat, graph, graph_path));
  DD_RETURN_NOT_OK(store->MapGraph(graph_path));

  // --- Shard files: pattern arena partitioned by owning arc range, emb
  // filled from `rng` in global row-major arc order (shards are laid out
  // in arc order, so sequential per-shard fills consume the exact draw
  // sequence of ml::Matrix::FillUniform on the whole matrix).
  const size_t num_shards = store->num_shards();
  store->shards_.reset(new Shard[num_shards]);
  for (size_t s = 0; s < num_shards; ++s) {
    const uint64_t arc_begin = s * store->arcs_per_shard_;
    const uint64_t arc_end =
        std::min<uint64_t>(num_arcs, (s + 1) * store->arcs_per_shard_);
    const uint64_t arc_count = arc_end - arc_begin;

    // Gather this shard's pattern subset with re-numbered local slots.
    std::vector<uint32_t> local_slot(arc_count, UINT32_MAX);
    std::vector<double> local_label;
    std::vector<uint8_t> local_active;
    std::vector<uint32_t> local_triad_off;
    std::vector<fmt::TriadPair> local_pairs;
    for (uint64_t e = arc_begin; e < arc_end; ++e) {
      const uint32_t g = init.slot[e];
      if (g == UINT32_MAX) continue;
      local_slot[e - arc_begin] = static_cast<uint32_t>(local_label.size());
      local_label.push_back(init.degree_pseudo_label[g]);
      local_active.push_back(init.degree_active[g]);
      local_triad_off.push_back(static_cast<uint32_t>(local_pairs.size()));
      for (uint32_t t = init.triad_offsets[g]; t < init.triad_offsets[g + 1];
           ++t) {
        local_pairs.push_back(init.triad_pairs[t]);
      }
    }
    if (!local_label.empty()) {
      local_triad_off.push_back(static_cast<uint32_t>(local_pairs.size()));
    }

    fmt::ShardMeta smeta{};
    smeta.kind = fmt::kShardKind;
    smeta.shard_index = s;
    smeta.arc_begin = arc_begin;
    smeta.arc_end = arc_end;
    smeta.dimensions = init.dimensions;
    smeta.num_slots = local_label.size();
    smeta.num_triad_pairs = local_pairs.size();
    smeta.arc_hash = init.arc_hash;

    const auto sizes = ShardSectionSizes(smeta);
    if (!sizes.ok()) return sizes.status();
    container::Layout layout = container::MakeLayout(sizes.value());
    const std::string path =
        options.dir + "/" + fmt::ShardFileName(s);
    auto mapped = serve::MmapRwFile::Create(path, layout.file_size,
                                            serve::MmapAdvice::kRandom);
    if (!mapped.ok()) return mapped.status();
    Shard& shard = store->shards_[s];
    shard.file = std::move(mapped).value();
    shard.Wire(smeta, std::move(layout));
    auto* base = static_cast<unsigned char*>(shard.file.data());
    const auto put = [&](size_t i, const void* data) {
      if (shard.layout.sizes[i] > 0) {
        std::memcpy(base + shard.layout.offsets[i], data,
                    shard.layout.sizes[i]);
      }
    };
    put(0, &smeta);
    put(1, local_slot.data());
    put(2, local_label.data());
    put(3, local_active.data());
    put(4, local_triad_off.data());
    put(5, local_pairs.data());
    const uint64_t values = arc_count * init.dimensions;
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
  std::unique_ptr<ShardedStore> store(new ShardedStore(dir, ram_budget_bytes));
  DD_RETURN_NOT_OK(store->MapGraph(dir + "/" + fmt::GraphFileName()));
  store->shards_.reset(new Shard[store->meta_.num_shards]);
  for (size_t s = 0; s < store->meta_.num_shards; ++s) {
    DD_RETURN_NOT_OK(store->AttachShard(s, dir + "/" + fmt::ShardFileName(s)));
  }
  store->InitPages();
  return store;
}

util::Status ShardedStore::MapGraph(const std::string& path) {
  auto mapped = serve::MmapFile::Open(path, serve::MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  graph_file_ = std::move(mapped).value();
  auto read = container::Reader::Open(fmt::kGraphFormat, path,
                                      graph_file_.data(), graph_file_.size());
  if (!read.ok()) return read.status();
  const container::Reader& reader = read.value();
  fmt::GraphMeta meta;
  DD_RETURN_NOT_OK(reader.ReadMeta(&meta));
  if (meta.kind != fmt::kGraphKind) {
    return reader.Defect("meta kind is not a graph");
  }
  if (meta.reserved0 != 0) return reader.Defect("nonzero reserved meta field");
  // Create() never writes a shard without arcs, so a count that would
  // leave one empty is a defect.
  if (meta.num_arcs == 0 || meta.num_shards == 0 || meta.dimensions == 0 ||
      ShardsWithArcs(meta.num_arcs, meta.num_shards) != meta.num_shards) {
    return reader.Defect("degenerate meta geometry");
  }
  DD_RETURN_NOT_OK(reader.CheckSizes(GraphSectionSizes(meta)));
  // The store samples from the CSR without bounds checks on the hot path.
  const auto offsets = reader.Array<uint64_t>(1);
  const auto adj = reader.Array<uint32_t>(2);
  const auto src = reader.Array<uint32_t>(3);
  DD_RETURN_NOT_OK(reader.CheckCsr(offsets, adj));
  if (std::any_of(src.begin(), src.end(),
                  [&](uint32_t u) { return u >= meta.num_nodes; })) {
    return reader.Defect("arc source out of range");
  }
  meta_ = meta;
  arcs_per_shard_ = (meta.num_arcs + meta.num_shards - 1) / meta.num_shards;
  row_bytes_ = meta.dimensions * sizeof(float);
  offsets_ = offsets.data();
  adj_ = adj.data();
  src_ = src.data();
  classes_ = reader.Array<uint8_t>(4).data();
  return util::Status::OK();
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
  fmt::ShardMeta smeta;
  DD_RETURN_NOT_OK(reader.ReadMeta(&smeta));
  if (smeta.kind != fmt::kShardKind) {
    return reader.Defect("meta kind is not a shard");
  }
  if (smeta.shard_index != index) {
    return reader.Defect("shard index does not match its file name");
  }
  if (smeta.arc_hash != meta_.arc_hash ||
      smeta.dimensions != meta_.dimensions) {
    return reader.Defect("shard does not belong to this store's graph");
  }
  const uint64_t want_begin = index * arcs_per_shard_;
  const uint64_t want_end =
      std::min<uint64_t>(meta_.num_arcs, (index + 1) * arcs_per_shard_);
  if (smeta.arc_begin != want_begin || smeta.arc_end != want_end) {
    return reader.Defect("shard arc range disagrees with the partition");
  }
  const auto sizes = ShardSectionSizes(smeta);
  DD_RETURN_NOT_OK(reader.CheckSizes(sizes));
  // Local slots and triad CSR must stay in bounds — the training hot path
  // indexes through them unchecked.
  for (uint32_t slot : reader.Array<uint32_t>(1)) {
    if (slot != UINT32_MAX && slot >= smeta.num_slots) {
      return reader.Defect("pattern slot out of range");
    }
  }
  if (smeta.num_slots > 0) {
    const auto off = reader.Array<uint32_t>(4);
    if (off[0] != 0 || off[smeta.num_slots] != smeta.num_triad_pairs) {
      return reader.Defect("triad CSR does not span the pair arena");
    }
    for (uint64_t t = 0; t < smeta.num_slots; ++t) {
      if (off[t] > off[t + 1]) {
        return reader.Defect("triad CSR offsets not monotone");
      }
    }
    for (const fmt::TriadPair& pair : reader.Array<fmt::TriadPair>(5)) {
      if (pair.first >= meta_.num_arcs || pair.second >= meta_.num_arcs) {
        return reader.Defect("triad pair arc index out of range");
      }
    }
  } else if (smeta.num_triad_pairs != 0) {
    return reader.Defect("triad pairs without pattern slots");
  }

  Shard& shard = shards_[index];
  shard.file = std::move(file);
  shard.Wire(smeta, container::MakeLayout(sizes.value()));
  return util::Status::OK();
}

void ShardedStore::Shard::Wire(const fmt::ShardMeta& meta,
                               container::Layout file_layout) {
  layout = std::move(file_layout);
  auto* base = static_cast<unsigned char*>(file.data());
  const auto at = [&](size_t i) { return base + layout.offsets[i]; };
  arc_begin = meta.arc_begin;
  arc_end = meta.arc_end;
  slot = reinterpret_cast<const uint32_t*>(at(1));
  label = reinterpret_cast<const double*>(at(2));
  active = at(3);
  triad_off = reinterpret_cast<const uint32_t*>(at(4));
  triad_pairs = reinterpret_cast<const fmt::TriadPair*>(at(5));
  emb = reinterpret_cast<float*>(at(6));
  conn = reinterpret_cast<float*>(at(7));
}

void ShardedStore::InitPages() {
  num_pages_ = 0;
  for (size_t s = 0; s < num_shards(); ++s) {
    Shard& shard = shards_[s];
    shard.page_offset = shard.layout.offsets[6] & ~(page_bytes_ - 1);
    shard.page_origin =
        reinterpret_cast<uintptr_t>(shard.file.data()) + shard.page_offset;
    shard.first_page = num_pages_;
    num_pages_ += static_cast<size_t>(
        (shard.layout.file_size - shard.page_offset + page_bytes_ - 1) >>
        page_shift_);
  }
  pages_.reset(new Page[num_pages_]);
}

void ShardedStore::Admit(size_t p) {
  std::lock_guard<std::mutex> lock(admit_mu_);
  Page& incoming = pages_[p];
  if (incoming.resident.load(std::memory_order_relaxed) != 0) return;  // raced
  // Advance the hand until the incoming page fits. It never evicts the
  // incoming page (not resident yet), so a budget below one page degrades
  // to exactly one resident page. A lap clears every reference byte it
  // passes, so unless rows keep being touched meanwhile, the hand finds a
  // victim within two laps.
  while (resident_bytes_ > 0 && resident_bytes_ + page_bytes_ > budget_bytes_) {
    const size_t q = hand_;
    hand_ = hand_ + 1 == num_pages_ ? 0 : hand_ + 1;
    Page& page = pages_[q];
    if (page.resident.load(std::memory_order_relaxed) == 0) continue;
    if (page.referenced.load(std::memory_order_relaxed) != 0) {
      page.referenced.store(0, std::memory_order_relaxed);
      continue;
    }
    // The victim's shard is the last one whose range starts at or before q.
    Shard* victim =
        std::upper_bound(shards_.get(), shards_.get() + num_shards(), q,
                         [](size_t index, const Shard& s) {
                           return index < s.first_page;
                         }) -
        1;
    page.resident.store(0, std::memory_order_release);
    victim->file.DropResident(
        victim->page_offset + ((q - victim->first_page) << page_shift_), 1);
    resident_bytes_ -= page_bytes_;
    ++evictions_;
  }
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
    for (size_t s = 0; s < meta_.num_shards; ++s) {
      shards_[s].file.DropResident(0, shards_[s].file.size());
    }
    for (size_t p = 0; p < num_pages_; ++p) {
      pages_[p].resident.store(0, std::memory_order_relaxed);
      pages_[p].referenced.store(0, std::memory_order_relaxed);
    }
    resident_bytes_ = 0;
  }
  for (size_t s = 0; s < meta_.num_shards; ++s) {
    Shard& shard = shards_[s];
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
  return stats;
}

}  // namespace deepdirect::train
