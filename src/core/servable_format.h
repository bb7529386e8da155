// On-disk layout of the servable DeepDirect model ("DDS1"): the aligned
// section container of train/container.h, read zero-copy through one mmap,
// with flags 0 and these sections (all required, no others permitted):
//
//   meta         servable::Meta — node/arc counts and the FNV-1a arc hash
//                of the training tie index
//   offsets      u64[num_nodes + 1] — CSR row starts into `adj`
//   adj          u32[num_arcs] — sorted closure-arc destinations; the arc
//                (u, v) has index offsets[u] + rank of v in u's row, the
//                same dense indexing core/tie_index.h defines
//   scores       f64[num_arcs] — d(e) = σ(w·m_e + b) per arc, computed at
//                export by the call DeepDirectModel::Directionality makes,
//                so a served value is the in-memory one bit for bit; every
//                score lies in [+0, 1]
//
// Version 2. A version 1 file (the embedding matrix M and the D-Step head
// in place of `scores`) fails Open as an unsupported version.
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
inline constexpr uint32_t kVersion = 2;

/// Payload of the "meta" section.
struct Meta {
  uint64_t num_nodes;
  uint64_t num_arcs;
  /// FNV-1a over the closure arc endpoints (core::HashTieIndex):
  /// identifies the training network the CSR index was derived from.
  uint64_t arc_hash;
};
static_assert(sizeof(Meta) == 24);

/// The required section order (also the payload order in the file).
inline constexpr const char* kSectionOrder[] = {
    "meta", "offsets", "adj", "scores",
};
inline constexpr uint64_t kSectionCount =
    sizeof(kSectionOrder) / sizeof(kSectionOrder[0]);

inline constexpr train::container::Format kFormat{kMagic, kVersion, 0,
                                                  kSectionOrder};

}  // namespace deepdirect::core::servable

#endif  // DEEPDIRECT_CORE_SERVABLE_FORMAT_H_
