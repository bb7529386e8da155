#include "serve/servable_model.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <limits>
#include <vector>

#include "core/servable_format.h"
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
  DD_RETURN_NOT_OK(container::CheckedMul(meta.num_arcs, sizeof(double),
                                         "num_arcs", &sizes[3]));
  return sizes;
}

/// Index of the first score that is NaN, signed (−0.0 included) or above
/// 1, or scores.size() when there is none. Non-negative doubles order as
/// their bit patterns, and every other value's pattern exceeds 1.0's, so
/// one unsigned compare per score decides it.
size_t FirstBadScore(std::span<const double> scores) {
  constexpr uint64_t kOne = std::bit_cast<uint64_t>(1.0);
  for (size_t e = 0; e < scores.size(); ++e) {
    if (std::bit_cast<uint64_t>(scores[e]) > kOne) return e;
  }
  return scores.size();
}

}  // namespace

util::Result<ServableModel> ServableModel::Open(const std::string& path,
                                                const ServeOptions& options) {
  obs::TraceSpan span("serve.open");
  auto mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  MmapFile file = std::move(mapped).value();
  auto read =
      container::Reader::Open(fmt::kFormat, path, file.data(), file.size());
  if (!read.ok()) return read.status();
  const container::Reader& reader = read.value();
  fmt::Meta meta;
  DD_RETURN_NOT_OK(reader.ReadMeta(&meta));
  DD_RETURN_NOT_OK(reader.CheckSizes(SectionSizes(meta)));
  const auto offsets = reader.Array<uint64_t>(1);
  const auto adj = reader.Array<uint32_t>(2);
  DD_RETURN_NOT_OK(reader.CheckCsr(offsets, adj));
  // A NaN would serve as NA, the answer for an unknown tie, and −0.0 would
  // print with a sign.
  const auto scores = reader.Array<double>(3);
  if (const size_t bad = FirstBadScore(scores); bad < scores.size()) {
    char value[32];
    const auto end =
        std::to_chars(value, value + sizeof(value), scores[bad]).ptr;
    return reader.Defect("score of arc " + std::to_string(bad) + " is " +
                         std::string(value, end) + ", not in [+0, 1]");
  }

  ServableModel model;
  model.num_nodes_ = meta.num_nodes;
  model.num_arcs_ = meta.num_arcs;
  model.arc_hash_ = meta.arc_hash;
  model.offsets_ = offsets.data();
  model.adj_ = adj.data();
  model.scores_ = scores.data();
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
  value = scores_[arc];
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
    out[i] = scores_[arc];
    cache_->Insert(key, out[i]);
  }
  return util::Status::OK();
}

}  // namespace deepdirect::serve
