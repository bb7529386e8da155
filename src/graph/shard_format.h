// On-disk layout of the out-of-core shard store ("DDSH").
//
// A sharded training run keeps the CSR closure graph and the edge
// embedding/connection matrices on disk behind mmap instead of in heap
// vectors, so graphs whose |E|×l parameter matrices exceed RAM can still
// train under a fixed resident budget. One store is a directory:
//
//   graph.dds        the symmetric-closure CSR and per-arc label classes,
//                    written once and sealed before training starts
//   shard-NNNN.dds   one file per shard, owning the contiguous arc range
//                    [arc_begin, arc_end): the shard's slice of the
//                    embedding matrix M and connection matrix N plus the
//                    pattern arena (pseudo-labels, triad pairs) for its
//                    undirected arcs; mutated in place during the E-step
//                    and sealed afterwards
//
// Both files are the aligned section container of train/container.h with
// magic "DDSH" and the section tables below. Shard files are written live
// (flags 0, payload CRCs not yet stamped) and restamped with kFlagSealed and
// their CRCs by ShardedStore::Seal(); the graph file is sealed at birth.
// Readers accept only sealed files. Sections may be empty (a shard with no
// undirected arcs has zero-length pattern sections).
//
// The store is not crash-atomic: a process killed mid-E-step leaves
// unsealed shard files behind, and Open() rejects them. Checkpoint/resume
// of sharded runs is recorded headroom (ROADMAP), not supported here.
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
inline constexpr uint32_t kVersion = 1;

/// One triad arc-index pair (index(u,w), index(v,w)) for w ∈ t(u, v),
/// referencing *global* arc indices (a triad neighbor may live in another
/// shard). Field names match std::pair so the E-step body is generic over
/// the in-RAM and on-disk representations.
struct TriadPair {
  uint32_t first;
  uint32_t second;
};
static_assert(sizeof(TriadPair) == 8);

/// File kinds (first field of both meta payloads).
inline constexpr uint64_t kGraphKind = 1;
inline constexpr uint64_t kShardKind = 2;

/// Payload of the graph file's "meta" section.
struct GraphMeta {
  uint64_t kind;  ///< kGraphKind
  uint64_t num_nodes;
  uint64_t num_arcs;
  uint64_t dimensions;  ///< embedding width l of the shard files
  uint64_t num_shards;
  uint64_t num_connected_pairs;  ///< |C(G)| (the E-step budget unit)
  /// FNV-1a over the closure arc endpoints (the same hash DDS1 and the
  /// E-step state store): identifies the network every shard file must
  /// match.
  uint64_t arc_hash;
  uint64_t reserved0;  ///< must be zero
};
static_assert(sizeof(GraphMeta) == 64);

/// Payload of a shard file's "meta" section.
struct ShardMeta {
  uint64_t kind;  ///< kShardKind
  uint64_t shard_index;
  uint64_t arc_begin;  ///< first global arc index owned by this shard
  uint64_t arc_end;    ///< one past the last owned arc
  uint64_t dimensions;
  uint64_t num_slots;        ///< pattern-carrying (undirected) arcs owned
  uint64_t num_triad_pairs;  ///< total TriadPair entries in the arena
  uint64_t arc_hash;         ///< must equal the graph file's arc_hash
};
static_assert(sizeof(ShardMeta) == 64);

// --- Graph file sections (all required, in this order) -----------------
//   meta      GraphMeta
//   offsets   u64[num_nodes + 1] — CSR row starts into `adj`
//   adj       u32[num_arcs] — sorted neighbor lists; doubles as the
//             arc → dst map (arc e's destination is adj[e])
//   src       u32[num_arcs] — arc → src
//   classes   u8[num_arcs] — core::ArcClass per arc
inline constexpr const char* kGraphSectionOrder[] = {
    "meta", "offsets", "adj", "src", "classes",
};
inline constexpr uint64_t kGraphSectionCount =
    sizeof(kGraphSectionOrder) / sizeof(kGraphSectionOrder[0]);

// --- Shard file sections (all required, in this order) -----------------
//   meta         ShardMeta
//   slot         u32[arc_end - arc_begin] — local arc → local pattern
//                slot, UINT32_MAX for non-undirected arcs
//   label        f64[num_slots] — y^d (Eq. 14) per slot
//   active       u8[num_slots] — y^d > T per slot
//   triad_off    u32[num_slots + 1] — CSR offsets into triad_pairs
//                (empty, rather than [0], when num_slots is 0)
//   triad_pairs  TriadPair[num_triad_pairs]
//   emb          f32[(arc_end - arc_begin) × dimensions] — rows of M
//   conn         f32[(arc_end - arc_begin) × dimensions] — rows of N
//
// emb and conn are deliberately last and adjacent: the resident budget
// counts the pages from the one holding the first emb byte to the end of
// the file, and evicts them one page at a time. Only that first page is
// shared with the (much smaller, always-hot) pattern arena, which is not
// budgeted.
inline constexpr const char* kShardSectionOrder[] = {
    "meta",      "slot",        "label", "active",
    "triad_off", "triad_pairs", "emb",   "conn",
};
inline constexpr uint64_t kShardSectionCount =
    sizeof(kShardSectionOrder) / sizeof(kShardSectionOrder[0]);

inline constexpr train::container::Format kGraphFormat{
    kMagic, kVersion, train::container::kFlagSealed, kGraphSectionOrder};
inline constexpr train::container::Format kShardFormat{
    kMagic, kVersion, train::container::kFlagSealed, kShardSectionOrder};

/// Canonical file names within a store directory.
inline std::string GraphFileName() { return "graph.dds"; }
inline std::string ShardFileName(size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu.dds", shard);
  return buf;
}

}  // namespace deepdirect::graph::shard

#endif  // DEEPDIRECT_GRAPH_SHARD_FORMAT_H_
