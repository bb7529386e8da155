// ExportServable: the serving-side artifact ("DDS1",
// core/servable_format.h) — a self-contained, mmap-friendly container
// holding the directionality function alone (CSR tie index and d(e) per
// arc), with every payload 64-byte aligned so serve::ServableModel::Open
// can answer d(u, v) zero-copy off the mapping without the training
// network or any deserialization pass. Written with the atomic
// temp+fsync+rename primitive of train/container.h, from either row
// backend: a serial out-of-core run writes the same file as the in-RAM
// one.

#include <vector>

#include "core/deepdirect.h"
#include "core/servable_format.h"

namespace deepdirect::core {

util::Status DeepDirectModel::ExportServable(const std::string& path) const {
  // The tie index's own CSR arrays are the format's offsets and adj.
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  static_assert(sizeof(graph::NodeId) == sizeof(uint32_t));
  servable::Meta meta{};
  meta.num_nodes = index_.num_nodes();
  meta.num_arcs = index_.num_arcs();
  meta.arc_hash = HashTieIndex(index_);
  // The call Directionality makes, so a served value is bit-identical; one
  // pass in arc order over the rows of M, on the heap or in the store.
  std::vector<double> scores(index_.num_arcs());
  for (size_t e = 0; e < scores.size(); ++e) {
    scores[e] = d_step_.PredictRow(Row(e));
  }
  const train::container::Payload payloads[servable::kSectionCount] = {
      {&meta, sizeof(meta)},
      {index_.Offsets().data(), index_.Offsets().size_bytes()},
      {index_.Adjacency().data(), index_.Adjacency().size_bytes()},
      {scores.data(), scores.size() * sizeof(double)},
  };
  return train::container::WriteFile(servable::kFormat, payloads, path);
}

}  // namespace deepdirect::core
