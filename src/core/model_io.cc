// Binary serialization of trained DeepDirect models — two artifacts:
//
// 1. Save/Load: the training-side round trip, built on the
//    train/checkpoint.h container: magic "DDM2", CRC32-protected sections,
//    atomic temp+fsync+rename writes. A crash mid-save leaves the previous
//    file (or none) — never a truncated hybrid — and any truncation or bit
//    flip of a saved file is rejected by Load with a section-anchored error
//    instead of being half-accepted.
//
//    Sections:
//      meta        u64 num_arcs, u64 arc_hash (FNV-1a over the closure arc
//                  list), u64 dimensions
//      embeddings  f32[num_arcs * dimensions], row-major matrix M
//      d_step_w    f64[dimensions]          D-Step weights w
//      d_step_b    f64                      D-Step bias b
//      e_step_w    f64[dimensions]          E-Step weights w'
//      e_step_b    f64                      E-Step bias b'
//
// 2. ExportServable: the serving-side artifact ("DDS1",
//    core/servable_format.h) — a self-contained, mmap-friendly container
//    holding the directionality function alone (CSR tie index, matrix M,
//    D-Step head), with every payload 64-byte aligned so
//    serve::ServableModel::Open can answer d(u, v) zero-copy off the
//    mapping without the training network or any deserialization pass.
//    Written with the same atomic temp+fsync+rename primitive.

#include <array>
#include <utility>
#include <vector>

#include "core/deepdirect.h"
#include "core/servable_format.h"

namespace deepdirect::core {

namespace {

constexpr std::array<char, 4> kModelMagic{'D', 'D', 'M', '2'};

struct ModelMeta {
  uint64_t num_arcs = 0;
  uint64_t arc_hash = 0;
  uint64_t dimensions = 0;
};

}  // namespace

util::Status DeepDirectModel::Save(const std::string& path) const {
  if (mlp_head_.has_value()) {
    return util::Status::FailedPrecondition(
        "models with an MLP D-Step head are not serializable");
  }
  train::CheckpointWriter writer(kModelMagic);
  ModelMeta meta;
  meta.num_arcs = embeddings_.rows();
  meta.arc_hash = HashTieIndex(index_);
  meta.dimensions = embeddings_.cols();
  writer.AddPod("meta", meta);
  writer.AddVector("embeddings", embeddings_.data());
  writer.AddVector("d_step_w", d_step_.weights());
  writer.AddPod("d_step_b", d_step_.bias());
  writer.AddVector("e_step_w", e_step_weights_);
  writer.AddPod("e_step_b", e_step_bias_);
  return writer.WriteAtomic(path);
}

util::Status DeepDirectModel::ExportServable(const std::string& path) const {
  if (mlp_head_.has_value()) {
    return util::Status::FailedPrecondition(
        "models with an MLP D-Step head are not servable");
  }
  // The tie index's own CSR arrays are the format's offsets and adj.
  static_assert(sizeof(size_t) == sizeof(uint64_t));
  static_assert(sizeof(graph::NodeId) == sizeof(uint32_t));
  servable::Meta meta{};
  meta.num_nodes = index_.num_nodes();
  meta.num_arcs = index_.num_arcs();
  meta.dimensions = embeddings_.cols();
  meta.arc_hash = HashTieIndex(index_);
  const std::vector<double>& weights = d_step_.weights();
  const double bias = d_step_.bias();
  const train::container::Payload payloads[servable::kSectionCount] = {
      {&meta, sizeof(meta)},
      {index_.Offsets().data(), index_.Offsets().size_bytes()},
      {index_.Adjacency().data(), index_.Adjacency().size_bytes()},
      {embeddings_.data().data(), embeddings_.data().size() * sizeof(float)},
      {weights.data(), weights.size() * sizeof(double)},
      {&bias, sizeof(bias)},
  };
  return train::container::WriteFile(servable::kFormat, payloads, path);
}

util::Result<std::unique_ptr<DeepDirectModel>> DeepDirectModel::Load(
    const std::string& path, const graph::MixedSocialNetwork& g) {
  auto read = train::CheckpointData::Read(path, kModelMagic);
  if (!read.ok()) return read.status();
  const train::CheckpointData& file = read.value();

  ModelMeta meta;
  DD_RETURN_NOT_OK(file.ReadPod("meta", &meta));

  TieIndex index(g);
  if (index.num_arcs() != meta.num_arcs || HashTieIndex(index) != meta.arc_hash) {
    return util::Status::InvalidArgument(
        "network mismatch: the model was trained on a different network "
        "(closure arcs: " + std::to_string(meta.num_arcs) + " vs " +
        std::to_string(index.num_arcs()) + ")");
  }

  std::unique_ptr<DeepDirectModel> model(
      new DeepDirectModel(std::move(index), meta.dimensions));
  DD_RETURN_NOT_OK(file.ReadVector("embeddings", &model->embeddings_.data(),
                                   meta.num_arcs * meta.dimensions));
  std::vector<double> d_weights;
  double d_bias = 0.0;
  DD_RETURN_NOT_OK(file.ReadVector("d_step_w", &d_weights, meta.dimensions));
  DD_RETURN_NOT_OK(file.ReadPod("d_step_b", &d_bias));
  model->d_step_ = ml::LogisticRegression(std::move(d_weights), d_bias);
  DD_RETURN_NOT_OK(file.ReadVector("e_step_w", &model->e_step_weights_,
                                   meta.dimensions));
  DD_RETURN_NOT_OK(file.ReadPod("e_step_b", &model->e_step_bias_));
  return model;
}

}  // namespace deepdirect::core
