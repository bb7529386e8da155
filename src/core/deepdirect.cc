#include "core/deepdirect.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/estep_body.h"
#include "core/sharded_trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/parallel.h"
#include "train/sgd_driver.h"
#include "train/sharded_store.h"
#include "util/random.h"

namespace deepdirect::core {

using graph::MixedSocialNetwork;
using graph::NodeId;

namespace {

// Fixed shard size for the pattern precompute: undirected arcs split into
// blocks of this many slots, independent of the worker count.
constexpr size_t kPatternBlock = 256;

}  // namespace

PatternPrecompute PrecomputePatterns(const MixedSocialNetwork& g,
                                     const TieIndex& idx,
                                     const DeepDirectConfig& config,
                                     std::span<const uint8_t> arc_mask) {
  obs::PhaseScope phase("deepdirect.preprocess.patterns");
  const size_t num_arcs = idx.num_arcs();
  DD_CHECK(arc_mask.empty() || arc_mask.size() == num_arcs);

  PatternPrecompute out;
  out.slot.assign(num_arcs, UINT32_MAX);
  // Slot assignment follows ascending arc index — a fixed order no
  // scheduling can perturb.
  std::vector<uint32_t> pattern_arcs;
  for (size_t e = 0; e < num_arcs; ++e) {
    if (idx.Class(e) != ArcClass::kUndirected) continue;
    out.slot[e] = static_cast<uint32_t>(pattern_arcs.size());
    pattern_arcs.push_back(static_cast<uint32_t>(e));
  }
  const size_t slots = pattern_arcs.size();
  out.degree_pseudo_label.resize(slots);
  out.degree_active.assign(slots, 0);
  out.triad_offsets.assign(slots + 1, 0);

  // Pass 1 over fixed slot blocks: per-slot label fields write disjoint
  // array entries; triad pairs collect into one buffer per block (a few
  // dozen allocations total instead of one vector per arc). The γ-cap
  // subsample draws from a per-arc counter-based RNG — no shared stream,
  // so the sampled t(u, v) is identical for every thread count.
  const size_t blocks = train::NumBlocks(slots, kPatternBlock);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> block_pairs(blocks);
  train::ParallelBlocks(
      slots, kPatternBlock, config.num_threads,
      [&](size_t b, size_t begin, size_t end) {
        std::vector<NodeId> common;  // reused across the block's arcs
        auto& pairs = block_pairs[b];
        for (size_t s = begin; s < end; ++s) {
          const size_t e = pattern_arcs[s];
          // Masked-out slots keep zeroed labels and an empty triad set;
          // the mask contract (see the header) is that Pattern() is never
          // consulted for them.
          if (!arc_mask.empty() && arc_mask[e] == 0) continue;
          const auto [u, v] = idx.ArcAt(e);
          // Pattern-consistent Eq. 14 (see header note): ties point toward
          // the higher-degree endpoint, so y^d_{uv} grows with deg(v).
          const double deg_u = g.Deg(u);
          const double deg_v = g.Deg(v);
          const double denom = deg_u + deg_v;
          const double y_d = denom > 0.0 ? deg_v / denom : 0.5;
          out.degree_pseudo_label[s] = y_d;
          out.degree_active[s] =
              y_d > config.degree_pattern_threshold ? 1 : 0;

          // t(u, v): up to γ random common neighbors.
          g.CommonNeighbors(u, v, common);
          if (common.size() > config.max_common_neighbors) {
            util::Rng arc_rng(train::PerItemSeed(config.seed, e));
            arc_rng.Shuffle(common);
            common.resize(config.max_common_neighbors);
          }
          out.triad_offsets[s + 1] = static_cast<uint32_t>(common.size());
          for (NodeId w : common) {
            pairs.emplace_back(static_cast<uint32_t>(idx.IndexOf(u, w)),
                               static_cast<uint32_t>(idx.IndexOf(v, w)));
          }
        }
      });

  // Serial prefix sum turns per-slot counts into CSR offsets.
  for (size_t s = 0; s < slots; ++s) {
    out.triad_offsets[s + 1] += out.triad_offsets[s];
  }

  // Pass 2: scatter each block's buffer into its disjoint arena range
  // (block b starts at the offset of its first slot).
  out.triad_pairs.resize(out.triad_offsets[slots]);
  train::ParallelBlocks(
      slots, kPatternBlock, config.num_threads,
      [&](size_t b, size_t begin, size_t /*end*/) {
        std::copy(block_pairs[b].begin(), block_pairs[b].end(),
                  out.triad_pairs.begin() + out.triad_offsets[begin]);
      });

  if (obs::Enabled()) {
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("deepdirect.preprocess.pattern_arcs")->Add(slots);
    registry.GetCounter("deepdirect.preprocess.triad_pairs")
        ->Add(out.triad_pairs.size());
  }
  return out;
}

DeepDirectModel::DeepDirectModel(TieIndex index, size_t rows,
                                 size_t dimensions)
    : index_(std::move(index)),
      embeddings_(rows, dimensions),
      d_step_(dimensions) {}

template <typename Model>
util::Result<std::unique_ptr<Model>> DeepDirectModel::Fit(
    const MixedSocialNetwork& g, const DeepDirectConfig& config) {
  // The row backend is all that differs. It decides how M and N are made,
  // the checkpointer (in RAM), and the shard plan, Seal() and the store
  // counters (out of core).
  constexpr bool kSharded = std::is_same_v<Model, ShardedDeepDirectModel>;
  DD_CHECK_GT(g.num_directed_ties(), 0u);
  DD_CHECK_GT(config.dimensions, 0u);
  DD_CHECK_GE(config.epochs, 0.0);

  obs::PhaseScope train_phase("deepdirect.train");
  // Sub-phase scope: emplace() closes the previous span and opens the next.
  std::optional<obs::PhaseScope> phase;
  phase.emplace("deepdirect.preprocess");
  TieIndex index(g);
  const size_t num_arcs = index.num_arcs();
  const size_t l = config.dimensions;
  std::unique_ptr<Model> model(
      new Model(std::move(index), kSharded ? 0 : num_arcs, l));
  const TieIndex& idx = model->index_;

  util::Rng rng(config.seed);

  // --- Preprocessing -------------------------------------------------------
  // Pattern data for undirected arcs (lines 6–9 of Algorithm 1): flat CSR
  // arena, sharded over config.num_threads workers, bit-identical for every
  // thread count (per-arc counter-based RNG instead of a shared stream).
  const PatternPrecompute patterns = PrecomputePatterns(g, idx, config);

  // M starts uniform in ±0.5/l and N at zero (skip-gram output-layer
  // convention). The store fills M in the ml::Matrix::FillUniform draw
  // order — the same draws at the same point in the stream as on the heap,
  // the first leg of the bit-identity contract.
  const float init = 0.5f / static_cast<float>(l);
  if constexpr (kSharded) {
    phase.emplace("deepdirect.sharded.create_store");
    const train::ShardedStoreOptions store_options{
        .dir = config.sharding.dir,
        .num_shards = config.sharding.num_shards,
        .ram_budget_bytes =
            static_cast<uint64_t>(config.sharding.ram_budget_mb) << 20};
    auto created = train::ShardedStore::Create(
        store_options, {num_arcs, HashTieIndex(idx), l}, rng, -init, init);
    if (!created.ok()) return created.status();
    model->store_ = std::move(created).value();
  }

  // --- E-Step --------------------------------------------------------------
  phase.emplace("deepdirect.estep");
  ml::Matrix n(kSharded ? 0 : num_arcs, l);  // connection matrix N
  if constexpr (!kSharded) model->embeddings_.FillUniform(rng, -init, init);
  // The rows both steps train: the store by reference, or the two heap
  // matrices by value (EStepEnv then reads them without an indirection).
  using Rows =
      std::conditional_t<kSharded, train::ShardedStore&, internal::MatrixRows>;
  Rows rows = [&]() -> Rows {
    if constexpr (kSharded) {
      return *model->store_;
    } else {
      return {model->embeddings_, n};
    }
  }();

  // The joint classifier (w′, b′) as the driver's dense block: w′ in the
  // first l slots, b′ in the last.
  std::vector<double> classifier(l + 1, 0.0);
  internal::Samplers samplers(idx, config.uniform_negative_sampling);

  // One epoch is |C(G)| iterations (τ epochs total; the last may be
  // partial when τ is fractional).
  const uint64_t iterations = static_cast<uint64_t>(
      config.epochs * static_cast<double>(idx.NumConnectedTiePairs()));
  train::SgdOptions options = internal::EStepOptions(
      config, iterations, config.seed, classifier, "train.deepdirect.estep");
  options.steps_per_epoch = idx.NumConnectedTiePairs();

  uint64_t tie_hash = 0;
  std::optional<train::Checkpointer> checkpointer;
  if constexpr (kSharded) {
    // Hogwild samples each step's source from its worker's shard. The
    // serial path never consults the plan (global sampling), so nt=1
    // output does not depend on the shard count.
    if (config.num_threads != 1 && rows.num_shards() > 1) {
      options.shard_plan = samplers.PlanShards(idx, rows);
    }
  } else {
    train::CheckpointOptions ckpt_options = config.checkpoint;
    if (ckpt_options.trainer.empty()) ckpt_options.trainer = "deepdirect.estep";
    // Only a checkpointed run hashes its input: every closure arc with its
    // class, which a new hidden split changes even where HashTieIndex does
    // not. The tie hash binds the state to the network's closure arcs for
    // a warm-start consumer (train/incremental.h).
    train::InputHash input;
    if (!ckpt_options.dir.empty()) {
      for (size_t e = 0; e < num_arcs; ++e) {
        const auto [u, v] = idx.ArcAt(e);
        input.Add(u);
        input.Add(v);
        input.Add(idx.Class(e));
      }
      tie_hash = HashTieIndex(idx);
    }
    const std::span<double> w_and_b(classifier);
    checkpointer.emplace(
        ckpt_options,
        train::RunShape{iterations, options.steps_per_epoch, config.seed,
                        options.lr, input.value()},
        train::kEStepCheckpoint,
        std::vector<std::span<std::byte>>{
            std::as_writable_bytes(std::span(model->embeddings_.data())),
            std::as_writable_bytes(std::span(n.data())),
            std::as_writable_bytes(w_and_b.first(l)),
            std::as_writable_bytes(w_and_b.subspan(l)),
            std::as_writable_bytes(std::span(&tie_hash, 1))});
    options.start_epoch = checkpointer->Resume(rng);
    options.checkpointer = &*checkpointer;
  }

  internal::RunEStep(internal::EStepEnv<Rows>{idx, patterns, rows, samplers},
                     options, config, rng);
  if constexpr (kSharded) {
    // Seal the store: stamps CRCs and the sealed flag so the trained
    // parameters validate byte-for-byte and the directory can be reopened.
    DD_RETURN_NOT_OK(rows.Seal());
  }
  model->e_step_weights_.assign(classifier.begin(), classifier.begin() + l);
  model->e_step_bias_ = classifier[l];

  // A simulated preemption stopped the E-Step mid-run: a killed process
  // would never have reached the D-Step, so return the partial model here
  // — running (and checkpointing) the D-Step on a half-trained embedding
  // would poison a later resume.
  if (checkpointer.has_value() && checkpointer->stopped()) return model;

  // Out of core, the D-step reads the labeled rows back out of the store,
  // admitting their pages under the budget.
  phase.emplace("deepdirect.dstep");
  model->d_step_ = internal::TrainDStep(rows, idx, classifier, config.d_step);

  if constexpr (kSharded) {
    // Residency over the whole run, in pages: the E-step, the Seal()
    // release and the D-step's re-admissions. Reads no Rng.
    if (obs::Enabled()) {
      const train::ShardedStore::Stats stats = rows.GetStats();
      obs::Registry& registry = obs::Registry::Default();
      registry.GetCounter("train.store.admissions")->Add(stats.admissions);
      registry.GetCounter("train.store.evictions")->Add(stats.evictions);
      registry.GetGauge("train.store.resident_bytes")
          ->Set(static_cast<double>(stats.resident_bytes));
      registry.GetGauge("train.store.max_resident_bytes")
          ->Set(static_cast<double>(stats.max_resident_bytes));
      registry.GetGauge("train.store.budget_bytes")
          ->Set(static_cast<double>(stats.budget_bytes));
    }
  }
  return model;
}

std::unique_ptr<DeepDirectModel> DeepDirectModel::Train(
    const MixedSocialNetwork& g, const DeepDirectConfig& config) {
  return std::move(Fit<DeepDirectModel>(g, config)).value();
}

util::Result<std::unique_ptr<ShardedDeepDirectModel>>
ShardedDeepDirectModel::Train(const MixedSocialNetwork& g,
                              const DeepDirectConfig& config) {
  if (config.sharding.num_shards == 0 || config.sharding.dir.empty()) {
    return util::Status::InvalidArgument(
        "sharded training requires sharding.num_shards > 0 and a store "
        "directory");
  }
  if (!config.checkpoint.dir.empty()) {
    return util::Status::InvalidArgument(
        "sharded runs cannot checkpoint yet");
  }
  return Fit<ShardedDeepDirectModel>(g, config);
}

std::span<const float> DeepDirectModel::Row(size_t e) const {
  return store_ != nullptr ? store_->EmbRow(e) : embeddings_.Row(e);
}

double DeepDirectModel::Directionality(NodeId u, NodeId v) const {
  return d_step_.PredictRow(Row(index_.IndexOf(u, v)));
}

util::Result<double> DeepDirectModel::TryDirectionality(NodeId u,
                                                        NodeId v) const {
  DD_RETURN_NOT_OK(index_.CheckTie(u, v));
  return Directionality(u, v);
}

DeepDirectModel::~DeepDirectModel() {
  // Only whole pages inside M, which is freed right after, so its contents
  // no longer matter.
  const std::vector<float>& m = embeddings_.data();
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin =
      (reinterpret_cast<uintptr_t>(m.data()) + page - 1) & ~(page - 1);
  const auto end =
      reinterpret_cast<uintptr_t>(m.data() + m.size()) & ~(page - 1);
  if (end > begin) {
    ::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  }
}

}  // namespace deepdirect::core
