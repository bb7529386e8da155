// On-disk layout of the servable DeepDirect model ("DDS1"): the aligned
// section container of train/container.h, read zero-copy through one mmap,
// with flags 0 and these sections (all required, no others permitted):
//
//   meta         servable::Meta — node/arc counts, embedding width, and
//                the FNV-1a arc hash of the training tie index
//   offsets      u64[num_nodes + 1] — CSR row starts into `adj`
//   adj          u32[num_arcs] — sorted closure-arc destinations; the arc
//                (u, v) has index offsets[u] + rank of v in u's row, the
//                same dense indexing core/tie_index.h defines
//   embeddings   f32[num_arcs × dimensions] — row-major matrix M
//   dstep_w      f64[dimensions] — D-Step weights w (Eq. 26)
//   dstep_b      f64 — D-Step bias b
//
// Writer: DeepDirectModel::ExportServable (core/model_io.cc).
// Reader: serve::ServableModel::Open (serve/servable_model.cc).

#ifndef DEEPDIRECT_CORE_SERVABLE_FORMAT_H_
#define DEEPDIRECT_CORE_SERVABLE_FORMAT_H_

#include <array>
#include <cstdint>

#include "train/container.h"

namespace deepdirect::core::servable {

inline constexpr std::array<char, 4> kMagic{'D', 'D', 'S', '1'};
inline constexpr uint32_t kVersion = 1;

/// Payload of the "meta" section.
struct Meta {
  uint64_t num_nodes;
  uint64_t num_arcs;
  uint64_t dimensions;
  /// FNV-1a over the closure arc endpoints (core::HashTieIndex):
  /// identifies the training network the CSR index was derived from.
  uint64_t arc_hash;
};
static_assert(sizeof(Meta) == 32);

/// The required section order (also the payload order in the file).
inline constexpr const char* kSectionOrder[] = {
    "meta", "offsets", "adj", "embeddings", "dstep_w", "dstep_b",
};
inline constexpr uint64_t kSectionCount =
    sizeof(kSectionOrder) / sizeof(kSectionOrder[0]);

inline constexpr train::container::Format kFormat{kMagic, kVersion, 0,
                                                  kSectionOrder};

}  // namespace deepdirect::core::servable

#endif  // DEEPDIRECT_CORE_SERVABLE_FORMAT_H_
