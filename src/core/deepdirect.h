// DeepDirect: edge-based network embedding for tie direction learning
// (Sec. 4 of the paper).
//
// E-Step: every closure arc e (see TieIndex) receives an embedding row m_e
// in the matrix M and a connection row n_e in N, optimized by SGD over
// sampled connected tie pairs against the joint loss
//     L = L_topo + α·L_label + β·L_pattern        (Eq. 18)
// with
//   * L_topo    — skip-gram with negative sampling over connected tie pairs
//                 (Eq. 10), positives sampled ∝ deg_tie (P_c) and negatives
//                 ∝ deg_tie^{3/4} (P_n);
//   * L_label   — cross-entropy of a jointly-trained logistic regression
//                 (w', b') on labeled arcs, tie-degree weighted (Eq. 13,
//                 realized by the P_c sampling, Eq. 19);
//   * L_pattern — cross-entropy on undirected arcs against pseudo-labels
//                 from the Degree Consistency Pattern (gated by threshold T)
//                 and the Triad Status Consistency Pattern (Eq. 16).
// Updates follow Eqs. 21–25 exactly.
//
// D-Step: a fresh L2-regularized logistic regression over the embedding
// rows of labeled arcs, warm-started from (w', b') (Sec. 4.5.2), yields the
// directionality function d(e) = σ(w·m_e + b) (Eq. 26).
//
// NOTE on Eq. 14: the paper prints y^d_{uv} = deg(u)/(deg(u)+deg(v)), which
// contradicts both the Degree Consistency Pattern ("ties link from lower
// degree to higher degree") and the status logic of Eq. 15. We implement
// the pattern-consistent form y^d_{uv} = deg(v)/(deg(u)+deg(v)) and record
// the deviation in DESIGN.md.

#ifndef DEEPDIRECT_CORE_DEEPDIRECT_H_
#define DEEPDIRECT_CORE_DEEPDIRECT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/directionality.h"
#include "core/tie_index.h"
#include "graph/mixed_graph.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "train/checkpoint.h"
#include "train/lr_schedule.h"

namespace deepdirect::train {
struct TieBatch;     // train/incremental.h
struct EStepState;   // train/incremental.h
class ShardedStore;  // train/sharded_store.h
}  // namespace deepdirect::train

namespace deepdirect::core {

struct IncrementalOptions;  // core/incremental.h
struct IncrementalUpdate;   // core/incremental.h

/// Out-of-core training (core/sharded_trainer.h). The sharded Train keeps
/// the embedding matrix M and the connection matrix N in a mmap-backed
/// ShardedStore of `num_shards` files under `dir`, with at most
/// `ram_budget_mb` of their pages resident, and the trained model reads M
/// from the store. Ignored by the in-RAM DeepDirectModel::Train.
struct ShardingConfig {
  size_t num_shards = 0;       ///< 0 = in-RAM training only
  std::string dir;             ///< store directory (required when sharded)
  size_t ram_budget_mb = 256;  ///< resident budget for M+N pages
};

/// Hyper-parameters of DeepDirect (paper defaults: l = 128, λ = 5, τ = 10;
/// α and β grid-searched — 5 and 1 are the paper's strong settings).
struct DeepDirectConfig {
  size_t dimensions = 128;       ///< l, embedding width
  size_t negative_samples = 5;   ///< λ
  double alpha = 5.0;            ///< weight of L_label
  double beta = 1.0;             ///< weight of L_pattern
  double degree_pattern_threshold = 0.3;   ///< T in Eq. 16
  size_t max_common_neighbors = 10;        ///< γ, size cap of t(u, v)
  double epochs = 10.0;          ///< τ: SGD iterations = τ·|C(G)|
  double initial_learning_rate = 0.05;
  double min_lr_fraction = 0.01;  ///< linear decay floor
  /// L2 decay on the E-Step classifier (w', b'), applied on classifier
  /// steps. Keeps w' from dominating the embedding geometry when α is
  /// large (the loss-explosion risk Sec. 6.2.2 warns about).
  double classifier_l2 = 1e-3;
  /// L2 decay on embedding rows (applied to the updated row each step).
  double embedding_l2 = 1e-4;
  /// Fraction of E-Step iterations over which the classifier losses
  /// (α and β terms) ramp linearly from 0 to full strength. Letting the
  /// topology loss shape the embedding first prevents the joint classifier
  /// from co-adapting labeled-arc rows before their contexts exist — the
  /// failure mode behind the "carefully increased α" caveat of Sec. 6.2.2.
  double classifier_warmup_fraction = 0.5;
  /// Ablation: when false, the classifier losses are de-weighted by
  /// 1/deg_tie(e), cancelling the implicit Eq. 13/16 weighting.
  bool weight_by_tie_degree = true;
  /// Ablation: sample negatives uniformly instead of ∝ deg_tie^{3/4}.
  bool uniform_negative_sampling = false;
  uint64_t seed = 21;
  /// Worker count (0 = all hardware threads) for both pipeline stages:
  ///  * preprocessing (pattern pseudo-labels + triad-pair arena) shards
  ///    undirected arcs into fixed blocks with per-arc counter-based RNG,
  ///    so its output is bit-identical for every thread count;
  ///  * the E-Step SGD, where 1 runs the deterministic serial path and
  ///    > 1 runs Hogwild: lock-free updates on the M and N rows, and a
  ///    private copy of (w′, b′) per worker merged every 64 of its steps
  ///    (see train/sgd_driver.h). Fast, but not bit-reproducible.
  size_t num_threads = 1;
  /// D-Step logistic regression settings.
  ml::LogisticRegressionConfig d_step = {
      .epochs = 20, .learning_rate = 0.05, .min_lr_fraction = 0.1,
      .l2 = 1e-4, .seed = 23, .shuffle = true,
      .metrics_prefix = "train.deepdirect.dstep",
      .checkpoint = {.dir = {}, .trainer = "deepdirect.dstep", .policy = {}}};
  /// Crash-safe E-Step checkpoint/resume (off unless `checkpoint.dir` is
  /// set); one epoch is |C(G)| iterations. The default trainer tag is
  /// "deepdirect.estep". The D-Step carries its own options in
  /// `d_step.checkpoint`. When a simulated preemption stops the E-Step,
  /// Train() returns the partial model without running the D-Step.
  train::CheckpointOptions checkpoint;
  /// Out-of-core sharding; only ShardedDeepDirectModel::Train reads it.
  ShardingConfig sharding;

  /// The E-Step decay schedule these parameters describe.
  train::LrSchedule Schedule() const {
    return {initial_learning_rate, min_lr_fraction,
            train::LrSchedule::Decay::kClampedLinear};
  }
};

/// Flat precomputed pattern data over the closure arcs (Algorithm 1,
/// lines 6–9): per-undirected-arc degree pseudo-labels plus one CSR arena
/// of triad arc-index pairs — a handful of flat arrays instead of a
/// heap-allocated pair vector per arc.
struct PatternPrecompute {
  /// Arc index → slot in the per-pattern-arc arrays below; UINT32_MAX for
  /// arcs that are not undirected.
  std::vector<uint32_t> slot;
  std::vector<double> degree_pseudo_label;  ///< y^d (Eq. 14) per slot
  std::vector<uint8_t> degree_active;       ///< y^d > T per slot
  /// CSR offsets into `triad_pairs`, size num_pattern_arcs() + 1.
  std::vector<uint32_t> triad_offsets;
  /// Arc-index pairs (index(u,w), index(v,w)) for w ∈ t(u, v), flat.
  std::vector<std::pair<uint32_t, uint32_t>> triad_pairs;

  /// Number of undirected (pattern-carrying) arcs.
  size_t num_pattern_arcs() const { return degree_pseudo_label.size(); }
};

/// Runs the pattern preprocessing stage alone, sharded over
/// `config.num_threads` workers (0 = all cores). Undirected arcs split into
/// fixed blocks and the γ-subsampling of t(u, v) draws from a counter-based
/// per-arc RNG seeded by (config.seed, arc index), so the result is
/// bit-identical for every thread count. Exposed for tests and benchmarks;
/// Train() runs it internally.
///
/// `arc_mask` (one byte per closure arc; empty = all arcs) scopes the
/// expensive per-arc work — degree pseudo-labels, common-neighbor scans,
/// triad subsampling — to the flagged arcs. Slots are still assigned to
/// every undirected arc so the slot map stays position-compatible with the
/// unmasked arena, but unflagged slots carry zeroed labels and empty triad
/// sets: the caller must guarantee Pattern() is only consulted for flagged
/// arcs (incremental updates sample sources exclusively from the affected
/// set, which is exactly the mask).
PatternPrecompute PrecomputePatterns(const graph::MixedSocialNetwork& g,
                                     const TieIndex& idx,
                                     const DeepDirectConfig& config,
                                     std::span<const uint8_t> arc_mask = {});

/// A trained DeepDirect model: embedding matrix + directionality head. The
/// rows of M live in the model's heap matrix or, for a model trained out
/// of core (ShardedDeepDirectModel, core/sharded_trainer.h), in the
/// ShardedStore it owns; every accessor below reads either.
class DeepDirectModel : public DirectionalityModel {
 public:
  /// Hands the pages of M back to the kernel before freeing it, so a
  /// process that outlives the model does not keep it resident (glibc
  /// keeps a freed block of M's size on its heap; DESIGN.md §3k).
  ~DeepDirectModel() override;

  /// Runs preprocessing, E-Step and D-Step on `g` (Algorithm 1) with M and
  /// N on the heap. The model is self-contained; `g` may be destroyed
  /// afterwards. Requires at least one directed tie (the TDL problem needs
  /// labeled data).
  static std::unique_ptr<DeepDirectModel> Train(
      const graph::MixedSocialNetwork& g, const DeepDirectConfig& config);

  /// Streaming update (core/incremental.h): splices a batch of new ties
  /// into `g`, warm-starts M/N and the joint classifier from `state` (the
  /// last checkpoint of a full training run or a previous update), runs
  /// the E-step only over new and pattern-affected arcs under a per-batch
  /// step quota, retrains the D-step, and returns the merged network, the
  /// updated model, and the chained warm-start state. Purely functional:
  /// on any error — a tie duplicating an existing edge (line-numbered), a
  /// state/network mismatch, a node count too large to allocate
  /// (ResourceExhausted) — nothing is mutated and no file is written.
  static util::Result<IncrementalUpdate> ApplyTieBatch(
      const graph::MixedSocialNetwork& g, const train::TieBatch& batch,
      const train::EStepState& state, const DeepDirectConfig& config,
      const IncrementalOptions& options);

  /// d(u, v) = σ(w·m_uv + b). The pair must host a tie of the training
  /// network.
  double Directionality(graph::NodeId u, graph::NodeId v) const override;

  /// d(u, v) when the pair hosts a training tie; a structured NotFound
  /// otherwise. Directionality() treats an unknown pair as a checked
  /// programmer error (it has no way to report one); callers that take
  /// pairs from outside the training network — the serving layer above
  /// all — use this form and branch on the status.
  util::Result<double> TryDirectionality(
      graph::NodeId u, graph::NodeId v) const override;
  std::string name() const override { return "DeepDirect"; }

  /// The heap embedding matrix M (rows indexed by the TieIndex). A model
  /// trained out of core keeps M in its store alone, so this matrix has no
  /// rows; TieEmbedding reads either.
  const ml::Matrix& embeddings() const { return embeddings_; }

  /// The closure-arc index the embedding rows follow.
  const TieIndex& index() const { return index_; }

  /// Embedding row of the tie arc (u, v).
  std::span<const float> TieEmbedding(graph::NodeId u,
                                      graph::NodeId v) const {
    return Row(index_.IndexOf(u, v));
  }

  /// The D-Step logistic regression (Eq. 26).
  const ml::LogisticRegression& d_step_regression() const {
    return d_step_;
  }

  /// E-Step classifier parameters (w', b'), exposed for tests.
  const std::vector<double>& e_step_weights() const {
    return e_step_weights_;
  }
  double e_step_bias() const { return e_step_bias_; }

  /// Writes the self-contained serving artifact ("DDS1",
  /// core/servable_format.h): the CSR tie index and each arc's d(e) as
  /// Directionality computes it, with 64-byte-aligned payloads so
  /// serve::ServableModel::Open answers d(u, v) zero-copy off one mmap —
  /// no training network needed at query time. Reads each row of M once;
  /// a store-backed model admits them under its budget. Written
  /// atomically (temp file, fsync, rename).
  util::Status ExportServable(const std::string& path) const;

 protected:
  /// A model over `index` with a heap M of `rows` rows: num_arcs(), or 0
  /// when the rows will live in `store_`.
  DeepDirectModel(TieIndex index, size_t rows, size_t dimensions);

  /// Algorithm 1, the one training pipeline of both row backends: M and N
  /// on the heap for Model = DeepDirectModel, or in a ShardedStore under
  /// `config.sharding` for Model = ShardedDeepDirectModel. Only the store
  /// reports errors.
  template <typename Model>
  static util::Result<std::unique_ptr<Model>> Fit(
      const graph::MixedSocialNetwork& g, const DeepDirectConfig& config);

  /// Where M lives out of core; null when it is on the heap.
  std::unique_ptr<train::ShardedStore> store_;

 private:
  /// Row e of M: from the heap matrix, or from the store, which admits the
  /// row's pages under its budget.
  std::span<const float> Row(size_t e) const;

  TieIndex index_;
  ml::Matrix embeddings_;
  std::vector<double> e_step_weights_;
  double e_step_bias_ = 0.0;
  ml::LogisticRegression d_step_;
};

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_DEEPDIRECT_H_
