#include "serve/servable_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/servable_format.h"
#include "ml/matrix.h"
#include "obs/trace.h"
#include "train/container.h"

namespace deepdirect::serve {

namespace fmt = core::servable;
namespace container = train::container;

namespace {

/// Expected payload size of every section of a DDS1 file with this meta.
util::Result<std::vector<uint64_t>> SectionSizes(const fmt::Meta& meta) {
  std::vector<uint64_t> sizes(fmt::kSectionCount);
  sizes[0] = sizeof(fmt::Meta);
  // num_nodes + 1 wraps only at 2^64 - 1, to an empty offsets section that
  // CheckCsr rejects.
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_nodes + 1, sizeof(uint64_t),
                                         "num_nodes", &sizes[1]));
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_arcs, sizeof(uint32_t),
                                         "num_arcs", &sizes[2]));
  uint64_t cells = 0;
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_arcs, meta.dimensions,
                                         "dimensions", &cells));
  DD_RETURN_NOT_OK(
      container::CheckedMul(cells, sizeof(float), "dimensions", &sizes[3]));
  DD_RETURN_NOT_OK(container::CheckedMul(meta.dimensions, sizeof(double),
                                         "dimensions", &sizes[4]));
  sizes[5] = sizeof(double);
  return sizes;
}

}  // namespace

util::Result<ServableModel> ServableModel::Open(const std::string& path,
                                                const ServeOptions& options) {
  obs::TraceSpan span("serve.open");
  auto mapped = MmapFile::Open(path, MmapAdvice::kRandom);
  if (!mapped.ok()) return mapped.status();
  MmapFile file = std::move(mapped).value();
  auto read =
      container::Reader::Open(fmt::kFormat, path, file.data(), file.size());
  if (!read.ok()) return read.status();
  const container::Reader& reader = read.value();
  fmt::Meta meta;
  DD_RETURN_NOT_OK(reader.ReadMeta(&meta));
  if (meta.dimensions == 0) return reader.Defect("zero embedding dimensions");
  DD_RETURN_NOT_OK(reader.CheckSizes(SectionSizes(meta)));
  const auto offsets = reader.Array<uint64_t>(1);
  const auto adj = reader.Array<uint32_t>(2);
  DD_RETURN_NOT_OK(reader.CheckCsr(offsets, adj));

  ServableModel model;
  model.num_nodes_ = meta.num_nodes;
  model.num_arcs_ = meta.num_arcs;
  model.dimensions_ = meta.dimensions;
  model.arc_hash_ = meta.arc_hash;
  model.offsets_ = offsets.data();
  model.adj_ = adj.data();
  model.embeddings_ = reader.Array<float>(3).data();
  model.weights_ = reader.Array<double>(4).data();
  model.bias_ = reader.Array<double>(5)[0];
  model.file_ = std::move(file);
  model.cache_ = std::make_unique<ShardedTieCache>(options.cache_capacity,
                                                   options.cache_ways);
  auto& registry = obs::Registry::Default();
  model.obs_queries_ = registry.GetCounter("serve.queries");
  model.obs_batch_size_ = registry.GetHistogram("serve.batch.size");
  return model;
}

uint64_t ServableModel::FindArc(graph::NodeId u, graph::NodeId v) const {
  if (u >= num_nodes_) return num_arcs_;
  const uint32_t* row_begin = adj_ + offsets_[u];
  const uint32_t* row_end = adj_ + offsets_[u + 1];
  const uint32_t* it = std::lower_bound(row_begin, row_end, v);
  if (it == row_end || *it != v) return num_arcs_;
  return offsets_[u] + static_cast<uint64_t>(it - row_begin);
}

double ServableModel::ScoreArc(uint64_t arc) const {
  const float* row = embeddings_ + arc * dimensions_;
  // Same accumulation order as ml::LogisticRegression::Score on the
  // double-promoted row — the values are bit-identical, which the golden
  // parity tests assert with exact equality.
  double score = bias_;
  for (uint64_t k = 0; k < dimensions_; ++k) {
    score += weights_[k] * static_cast<double>(row[k]);
  }
  return ml::Sigmoid(score);
}

util::Result<double> ServableModel::Query(graph::NodeId u,
                                          graph::NodeId v) const {
  if (obs::Enabled()) {
    obs_queries_->Add();
    obs_batch_size_->Observe(1.0);
  }
  const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
  double value = 0.0;
  if (cache_->Lookup(key, &value)) return value;
  const uint64_t arc = FindArc(u, v);
  if (arc == num_arcs_) {
    return util::Status::NotFound("no tie between " + std::to_string(u) +
                                  " and " + std::to_string(v) +
                                  " in the training network");
  }
  value = ScoreArc(arc);
  cache_->Insert(key, value);
  return value;
}

util::Status ServableModel::QueryBatch(std::span<const TiePair> ties,
                                       std::span<double> out,
                                       MissingPolicy policy) const {
  if (ties.size() != out.size()) {
    return util::Status::InvalidArgument(
        "QueryBatch spans disagree: " + std::to_string(ties.size()) +
        " ties vs " + std::to_string(out.size()) + " output slots");
  }
  if (obs::Enabled()) {
    obs_queries_->Add(ties.size());
    obs_batch_size_->Observe(static_cast<double>(ties.size()));
  }
  for (size_t i = 0; i < ties.size(); ++i) {
    const TiePair& tie = ties[i];
    const uint64_t key =
        (static_cast<uint64_t>(tie.u) << 32) | tie.v;
    if (cache_->Lookup(key, &out[i])) continue;
    const uint64_t arc = FindArc(tie.u, tie.v);
    if (arc == num_arcs_) {
      if (policy == MissingPolicy::kError) {
        return util::Status::NotFound(
            "no tie between " + std::to_string(tie.u) + " and " +
            std::to_string(tie.v) + " in the training network (batch item " +
            std::to_string(i) + ")");
      }
      out[i] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    out[i] = ScoreArc(arc);
    cache_->Insert(key, out[i]);
  }
  return util::Status::OK();
}

}  // namespace deepdirect::serve
