// On-disk layout of the out-of-core shard store ("DDSH").
//
// A sharded training run keeps the edge embedding and connection matrices
// M and N on disk behind mmap instead of in heap vectors, so graphs whose
// |E|×l parameter matrices exceed RAM can still train under a fixed
// resident budget. The store holds parameter rows only: the closure index,
// the pattern arena and the sampling tables stay on the trainer's heap
// (they are small next to M and N). One store is a directory of
//
//   shard-NNNN.dds   one file per shard, owning the contiguous arc range
//                    [arc_begin, arc_end): the shard's rows of M and N,
//                    mutated in place during the E-step and sealed
//                    afterwards
//
// Every shard's meta repeats the store geometry (shard count, arc count,
// dimensions, arc hash); shard 0 names it and Open() requires every other
// shard to agree. Each file is the aligned section container of
// train/container.h with magic "DDSH" and the section table below. Shard
// files are written live (flags 0, payload CRCs not yet stamped) and
// restamped with kFlagSealed and their CRCs by ShardedStore::Seal().
// Readers accept only sealed files.
//
// The store is not crash-atomic: a process killed mid-E-step leaves
// unsealed shard files behind, and Open() rejects them. Nor is a sealed
// store a checkpoint: the next epoch would rewrite its rows in place.
// Sharded runs cannot checkpoint yet (ROADMAP); only the library's
// ShardedStore::Open reopens a store, and no tdl_cli command does.
//
// Writer/reader: train/sharded_store.{h,cc}.

#ifndef DEEPDIRECT_GRAPH_SHARD_FORMAT_H_
#define DEEPDIRECT_GRAPH_SHARD_FORMAT_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "train/container.h"

namespace deepdirect::graph::shard {

inline constexpr std::array<char, 4> kMagic{'D', 'D', 'S', 'H'};
/// Version 2 holds parameter rows only; readers reject other versions.
inline constexpr uint32_t kVersion = 2;

/// Payload of a shard file's "meta" section.
struct ShardMeta {
  uint64_t shard_index;
  uint64_t num_shards;  ///< shards in the store
  uint64_t num_arcs;    ///< closure arcs across the store
  uint64_t dimensions;  ///< embedding width l
  /// FNV-1a over the closure arc endpoints (the same hash DDS1 and the
  /// E-step state store): identifies the network every shard must match.
  uint64_t arc_hash;
  uint64_t arc_begin;  ///< first global arc index owned by this shard
  uint64_t arc_end;    ///< one past the last owned arc

  bool operator==(const ShardMeta&) const = default;
};
static_assert(sizeof(ShardMeta) == 56);

// --- Shard file sections (all required, in this order) -----------------
//   meta   ShardMeta
//   emb    f32[(arc_end - arc_begin) × dimensions] — rows of M
//   conn   f32[(arc_end - arc_begin) × dimensions] — rows of N
//
// The resident budget counts the pages from the one holding the first emb
// byte to the end of the file, and evicts them one page at a time.
inline constexpr const char* kShardSectionOrder[] = {"meta", "emb", "conn"};

inline constexpr train::container::Format kShardFormat{
    kMagic, kVersion, train::container::kFlagSealed, kShardSectionOrder};

/// Canonical file name of shard `shard` within a store directory.
inline std::string ShardFileName(size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu.dds", shard);
  return buf;
}

}  // namespace deepdirect::graph::shard

#endif  // DEEPDIRECT_GRAPH_SHARD_FORMAT_H_
