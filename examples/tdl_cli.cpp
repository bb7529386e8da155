// tdl_cli: a command-line front end to the library for file-based use.
//
//   tdl_cli generate --dataset twitter [--scale 1.0] --output net.edges
//       Writes a synthetic mixed social network in edge-list format.
//
//   tdl_cli discover --input net.edges [--method deepdirect]
//                    [--output predictions.csv] [--hide 0.5] [--seed 42]
//       Trains the chosen method on the network's directed ties and
//       predicts the direction of every undirected tie. With --hide F, the
//       input's directed ties are first split (F remain directed) and the
//       prediction accuracy on the hidden part is reported.
//
//   tdl_cli quantify --input net.edges [--method deepdirect]
//                    [--output directionality.csv]
//       Emits the directionality values d(u,v), d(v,u) for every
//       bidirectional tie (the directionality adjacency matrix entries).
//
//   tdl_cli embed --input net.edges --output embeddings.csv [--dims 64]
//       Trains DeepDirect and exports the tie embedding matrix M
//       (one row per closure arc: u, v, m_uv...).
//
//   tdl_cli update --input net.edges --batch new1.edges[,new2.edges...]
//                  --checkpoint-dir ckpt [--epochs-per-batch E]
//       Absorbs batches of newly-arrived ties into a trained DeepDirect
//       model: warm-starts M/N/(w', b') from the newest E-step checkpoint
//       in --checkpoint-dir, splices each batch into the network, and
//       retrains only the affected closure arcs. Saves the chained state
//       back so further updates pick it up.
//
//   tdl_cli serve --model model.dds [--cache N] [--ways N]
//       Answers d(u, v) queries over stdin/stdout against a servable model
//       exported with --save-model (accepted by discover, quantify, and
//       embed when the method is deepdirect). See serve/server.h for the
//       line protocol.
//
// Methods: deepdirect (default), hf, line, redirect-n, redirect-t.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/incremental.h"
#include "core/models.h"
#include "core/sharded_trainer.h"
#include "data/datasets.h"
#include "graph/algorithms.h"
#include "graph/graph_io.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace_buffer.h"
#include "serve/servable_model.h"
#include "serve/server.h"
#include "train/checkpoint.h"
#include "util/csv_writer.h"
#include "util/random.h"

namespace {

using namespace deepdirect;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tdl_cli generate --dataset <name> [--scale S] [--stream]"
               " --output F\n"
               "  tdl_cli discover --input F [--method M] [--output F]"
               " [--hide F] [--seed N] [--threads N] [--epochs E]\n"
               "                   [--shards N --shard-dir D"
               " [--shard-ram-mb M]]\n"
               "  tdl_cli quantify --input F [--method M] [--output F]"
               " [--threads N]\n"
               "  tdl_cli embed    --input F --output F [--dims N]"
               " [--threads N]\n"
               "  tdl_cli update   --input F --batch F[,F...]"
               " --checkpoint-dir D\n"
               "                   [--epochs-per-batch E] [--threads N]"
               " [--output F]\n"
               "                   [--merged-output F] [--truth F]"
               " [--save-model F]\n"
               "  tdl_cli serve    --model F [--cache N] [--ways N]\n"
               "methods: deepdirect hf line redirect-n redirect-t\n"
               "datasets: twitter livejournal epinions slashdot tencent\n"
               "--threads: workers for graph loading, preprocessing, and"
               " SGD\n  (default 1; 0 = all cores; preprocessing stays"
               " bit-identical at any\n  count, multi-worker SGD is"
               " Hogwild)\n"
               "--metrics-out: write a training-telemetry snapshot (phase"
               " timings,\n  losses, sampler counters) to the given path"
               " (.csv = CSV, else JSON);\n  accepted by every command\n"
               "--checkpoint-dir: write crash-safe training checkpoints"
               " into this\n  directory (discover/quantify/embed);"
               " --checkpoint-every N sets the\n  epoch cadence (default 1),"
               " --checkpoint-keep K the retention (default\n  3, 0 = keep"
               " all), and --resume restarts from the newest valid\n"
               "  checkpoint after an interruption\n"
               "--metrics-interval-sec S: with --metrics-out, also append a"
               " registry\n  snapshot every S seconds to"
               " <metrics-out>.timeline.jsonl (one JSON\n  object per line)\n"
               "--trace-out: record phase/epoch/checkpoint spans and write a"
               " Chrome\n  trace_event JSON timeline to the given path (open"
               " in Perfetto or\n  chrome://tracing); accepted by every"
               " command\n"
               "--save-model: after training (discover/quantify/embed with"
               " the\n  deepdirect method), export the model in the"
               " mmap-friendly servable\n  format `tdl_cli serve` consumes\n"
               "serve: one request per stdin line — `u v [u v ...]` answers"
               " one\n  d(u,v) per pair (NA for unknown ties), `stats` prints"
               " cache counters,\n  `quit` exits; --cache sets the hot-tie"
               " cache capacity in slots\n  (default 4096, 0 = off),"
               " --ways its set associativity (default 8)\n"
               "--stream: generate straight to disk without building the"
               " network in\n  RAM (the path for 10M+-tie graphs feeding"
               " out-of-core training)\n"
               "--shards/--shard-dir/--shard-ram-mb: train DeepDirect"
               " out-of-core —\n  the embedding matrices live in mmap-backed"
               " shard files under\n  --shard-dir with at most --shard-ram-mb"
               " MB (default 256) of parameter\n  pages resident;"
               " single-threaded sharded runs are bit-identical to\n"
               "  in-RAM training\n"
               "--epochs: override the E-step epoch count τ"
               " (discover/quantify)\n"
               "update: --batch is a comma-separated list of delta files in"
               " edge-list\n  format, applied in order; each warm-starts"
               " from the previous state\n  and retrains only arcs touched"
               " by the batch (--epochs-per-batch\n  passes over the"
               " affected pair mass, default 2). The final E-step\n"
               "  state of a run with --checkpoint-dir is always written,"
               " so any such\n  run can seed updates\n"
               "--truth: score direction discovery against a file of 'u v'"
               " lines\n  (true direction u -> v) via d(u,v) >= d(v,u)"
               " (discover/update)\n"
               "--merged-output: write the post-update network in edge-list"
               " format\n"
               "--kernels: inner-loop dispatch — auto (default: SIMD when"
               " the CPU\n  supports it), scalar (bit-identical to the"
               " historical serial\n  trainers), or simd (force the"
               " vectorized path); the DD_KERNELS\n  env var sets the"
               " default\n");
  return 2;
}

std::optional<core::Method> ParseMethod(const std::string& name) {
  if (name == "deepdirect") return core::Method::kDeepDirect;
  if (name == "hf") return core::Method::kHf;
  if (name == "line") return core::Method::kLine;
  if (name == "redirect-n") return core::Method::kRedirectNsm;
  if (name == "redirect-t") return core::Method::kRedirectTsm;
  return std::nullopt;
}

// Strict parse for --threads: the whole string must be a base-10 number.
// (strtoull alone would turn a typo like "abc" into 0 = all cores.)
std::optional<size_t> ParseThreads(const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return std::nullopt;
  return static_cast<size_t>(value);
}

std::optional<data::DatasetId> ParseDataset(const std::string& name) {
  if (name == "twitter") return data::DatasetId::kTwitter;
  if (name == "livejournal") return data::DatasetId::kLiveJournal;
  if (name == "epinions") return data::DatasetId::kEpinions;
  if (name == "slashdot") return data::DatasetId::kSlashdot;
  if (name == "tencent") return data::DatasetId::kTencent;
  return std::nullopt;
}

// Flat --key [value] parsing; a flag followed by another flag (or the end
// of the argument list) is valueless and maps to the empty string, so bare
// switches like --resume parse alongside --key value pairs.
std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[i + 1];
      ++i;
    } else {
      flags[key] = "";
    }
  }
  return flags;
}

int RunGenerate(const std::map<std::string, std::string>& flags) {
  const auto dataset_it = flags.find("dataset");
  const auto output_it = flags.find("output");
  if (dataset_it == flags.end() || output_it == flags.end()) return Usage();
  const auto dataset = ParseDataset(dataset_it->second);
  if (!dataset.has_value()) return Usage();
  const double scale =
      flags.contains("scale") ? std::atof(flags.at("scale").c_str()) : 1.0;

  if (flags.contains("stream")) {
    // Stream the tie sequence straight to disk — same process, same RNG
    // stream, so the file matches what SaveEdgeList would have written,
    // without ever holding the network in RAM.
    const auto config = data::DatasetConfig(*dataset, scale);
    const auto status =
        data::WriteStatusNetworkEdgeList(config, output_it->second);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("streamed %zu-node network to %s\n", config.num_nodes,
                output_it->second.c_str());
    return 0;
  }

  const auto net = data::MakeDataset(*dataset, scale);
  const auto status = graph::SaveEdgeList(net, output_it->second);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu nodes / %zu ties to %s\n", net.num_nodes(),
              net.num_ties(), output_it->second.c_str());
  return 0;
}

// The --checkpoint-dir / --checkpoint-every / --checkpoint-keep / --resume
// flag family.
struct CheckpointFlags {
  std::string dir;  ///< empty = checkpointing off
  train::CheckpointPolicy policy;
  bool resume = false;
};

// Parses the checkpoint flags; nullopt after printing an error when a value
// is malformed or --resume is given without --checkpoint-dir.
std::optional<CheckpointFlags> ParseCheckpointFlags(
    const std::map<std::string, std::string>& flags) {
  CheckpointFlags out;
  if (flags.contains("checkpoint-dir")) out.dir = flags.at("checkpoint-dir");
  out.resume = flags.contains("resume");
  if (out.resume && out.dir.empty()) {
    std::fprintf(stderr, "error: --resume requires --checkpoint-dir\n");
    return std::nullopt;
  }
  const auto number_flag = [&](const char* name,
                               uint64_t* value) -> bool {
    if (!flags.contains(name)) return true;
    const auto parsed = ParseThreads(flags.at(name));
    if (!parsed.has_value()) {
      std::fprintf(stderr, "error: --%s expects a number, got '%s'\n", name,
                   flags.at(name).c_str());
      return false;
    }
    *value = *parsed;
    return true;
  };
  uint64_t keep = out.policy.keep_last;
  if (!number_flag("checkpoint-every", &out.policy.every_n_epochs) ||
      !number_flag("checkpoint-keep", &keep)) {
    return std::nullopt;
  }
  out.policy.keep_last = static_cast<size_t>(keep);
  // CLI runs always persist the final E-step state: `tdl_cli update`
  // warm-starts from it, and an ordinary resume snapshot is one epoch
  // short of the model the run actually produced.
  out.policy.write_final = true;
  return out;
}

// Parses the optional --threads flag; nullopt after printing an error when
// the value is malformed, 1 (deterministic serial default) when absent.
std::optional<size_t> ThreadsFlag(
    const std::map<std::string, std::string>& flags) {
  if (!flags.contains("threads")) return 1;
  const auto threads = ParseThreads(flags.at("threads"));
  if (!threads.has_value()) {
    std::fprintf(stderr, "error: --threads expects a number, got '%s'\n",
                 flags.at("threads").c_str());
  }
  return threads;
}

// Handles --save-model: exports `model` (which must be a DeepDirect model)
// in the servable DDS1 format. Returns 0, or 1 after printing an error.
int MaybeSaveModel(const std::map<std::string, std::string>& flags,
                   const core::DirectionalityModel& model) {
  if (!flags.contains("save-model")) return 0;
  const std::string& path = flags.at("save-model");
  if (path.empty()) {
    std::fprintf(stderr, "error: --save-model expects a path\n");
    return 1;
  }
  const auto* deepdirect =
      dynamic_cast<const core::DeepDirectModel*>(&model);
  if (deepdirect == nullptr) {
    std::fprintf(stderr,
                 "error: --save-model requires --method deepdirect (other "
                 "methods have no servable form)\n");
    return 1;
  }
  const auto status = deepdirect->ExportServable(path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote servable model to %s\n", path.c_str());
  return 0;
}

// Evaluates direction-discovery accuracy against a ground-truth file of
// `u v` lines (true direction u -> v; blank lines and `#` comments are
// skipped) via the paper's d(u,v) >= d(v,u) rule. A pair the model cannot
// evaluate is an error — the truth file must describe ties of the network
// the model was trained on. Returns 0 after printing the accuracy.
int ReportTruthAccuracy(const std::string& path,
                        const core::DirectionalityModel& model) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "error: cannot open truth file %s\n", path.c_str());
    return 1;
  }
  size_t correct = 0;
  size_t total = 0;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    unsigned long long u = 0;
    unsigned long long v = 0;
    char trailing = '\0';
    if (std::sscanf(line.c_str(), "%llu %llu %c", &u, &v, &trailing) != 2) {
      std::fprintf(stderr, "error: %s line %zu: expected 'u v', got '%s'\n",
                   path.c_str(), line_no, line.c_str());
      return 1;
    }
    const auto d_uv = model.TryDirectionality(static_cast<graph::NodeId>(u),
                                              static_cast<graph::NodeId>(v));
    const auto d_vu = model.TryDirectionality(static_cast<graph::NodeId>(v),
                                              static_cast<graph::NodeId>(u));
    if (!d_uv.ok() || !d_vu.ok()) {
      std::fprintf(stderr,
                   "error: %s line %zu: tie %llu %llu is not evaluable by "
                   "this model (%s)\n",
                   path.c_str(), line_no, u, v,
                   (d_uv.ok() ? d_vu : d_uv).status().ToString().c_str());
      return 1;
    }
    if (d_uv.value() >= d_vu.value()) ++correct;
    ++total;
  }
  if (total == 0) {
    std::fprintf(stderr, "error: truth file %s has no ties\n", path.c_str());
    return 1;
  }
  std::printf("accuracy on truth file: %.4f (%zu/%zu)\n",
              static_cast<double>(correct) / static_cast<double>(total),
              correct, total);
  return 0;
}

int RunDiscoverOrQuantify(const std::string& command,
                          const std::map<std::string, std::string>& flags) {
  const auto input_it = flags.find("input");
  if (input_it == flags.end()) return Usage();
  const auto threads = ThreadsFlag(flags);
  if (!threads.has_value()) return 1;
  auto loaded = graph::LoadEdgeList(input_it->second, *threads);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const auto method =
      ParseMethod(flags.contains("method") ? flags.at("method")
                                           : "deepdirect");
  if (!method.has_value()) return Usage();
  const uint64_t seed =
      flags.contains("seed") ? std::strtoull(flags.at("seed").c_str(),
                                             nullptr, 10)
                             : 42;

  graph::MixedSocialNetwork network = std::move(loaded).value();
  std::optional<graph::HiddenDirectionSplit> split;
  if (command == "discover" && flags.contains("hide")) {
    const double hide = std::atof(flags.at("hide").c_str());
    util::Rng rng(seed);
    split = graph::HideDirections(network, 1.0 - hide, rng);
  }
  const graph::MixedSocialNetwork& train_net =
      split.has_value() ? split->network : network;

  if (train_net.num_directed_ties() == 0) {
    std::fprintf(stderr,
                 "error: the network has no directed ties; the TDL problem "
                 "needs labeled data\n");
    return 1;
  }

  auto configs = core::MethodConfigs::FastDefaults();
  configs.SetNumThreads(*threads);
  const auto ckpt = ParseCheckpointFlags(flags);
  if (!ckpt.has_value()) return 1;
  if (!ckpt->dir.empty()) {
    configs.SetCheckpointing(ckpt->dir, ckpt->policy, ckpt->resume);
  }
  if (flags.contains("epochs")) {
    configs.deepdirect.epochs = std::atof(flags.at("epochs").c_str());
  }

  // The --shards family routes DeepDirect training out-of-core.
  size_t shards = 0;
  size_t shard_ram_mb = 256;
  const auto size_flag = [&](const char* name, size_t* value) -> bool {
    if (!flags.contains(name)) return true;
    const auto parsed = ParseThreads(flags.at(name));
    if (!parsed.has_value()) {
      std::fprintf(stderr, "error: --%s expects a number, got '%s'\n", name,
                   flags.at(name).c_str());
      return false;
    }
    *value = *parsed;
    return true;
  };
  if (!size_flag("shards", &shards) ||
      !size_flag("shard-ram-mb", &shard_ram_mb)) {
    return 1;
  }

  std::printf("training %s on %zu nodes / %zu ties (%zu directed)...\n",
              core::MethodName(*method), train_net.num_nodes(),
              train_net.num_ties(), train_net.num_directed_ties());
  std::unique_ptr<core::DirectionalityModel> model;
  if (shards > 0) {
    if (*method != core::Method::kDeepDirect) {
      std::fprintf(stderr,
                   "error: --shards requires --method deepdirect\n");
      return 1;
    }
    if (!flags.contains("shard-dir") || flags.at("shard-dir").empty()) {
      std::fprintf(stderr, "error: --shards requires --shard-dir\n");
      return 1;
    }
    core::DeepDirectConfig config = configs.deepdirect;
    config.sharding.num_shards = shards;
    config.sharding.dir = flags.at("shard-dir");
    config.sharding.ram_budget_mb = shard_ram_mb;
    auto trained = core::ShardedDeepDirectModel::Train(train_net, config);
    if (!trained.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   trained.status().ToString().c_str());
      return 1;
    }
    model = std::move(trained).value();
  } else {
    model = core::TrainMethod(train_net, *method, configs);
  }

  const std::string output =
      flags.contains("output") ? flags.at("output") : "";
  util::CsvWriter csv(output.empty() ? "/dev/null" : output);

  if (command == "discover") {
    csv.WriteRow({"proposer", "responder", "confidence"});
    const auto predictions = core::DiscoverDirections(train_net, *model);
    for (const auto& p : predictions) {
      csv.WriteRow({std::to_string(p.source), std::to_string(p.target),
                    std::to_string(p.confidence)});
    }
    std::printf("predicted directions for %zu undirected ties\n",
                predictions.size());
    if (split.has_value()) {
      std::printf("accuracy on hidden ground truth: %.4f\n",
                  core::DirectionDiscoveryAccuracy(*split, *model));
    }
    if (flags.contains("truth")) {
      const int rc = ReportTruthAccuracy(flags.at("truth"), *model);
      if (rc != 0) return rc;
    }
  } else {  // quantify
    csv.WriteRow({"u", "v", "d_uv", "d_vu"});
    size_t count = 0;
    for (graph::ArcId id : train_net.bidirectional_arcs()) {
      const auto& arc = train_net.arc(id);
      if (arc.src > arc.dst) continue;
      csv.WriteRow({std::to_string(arc.src), std::to_string(arc.dst),
                    std::to_string(model->Directionality(arc.src, arc.dst)),
                    std::to_string(model->Directionality(arc.dst, arc.src))});
      ++count;
    }
    std::printf("quantified %zu bidirectional ties\n", count);
  }
  if (!output.empty()) std::printf("wrote %s\n", output.c_str());
  return MaybeSaveModel(flags, *model);
}

int RunEmbed(const std::map<std::string, std::string>& flags) {
  const auto input_it = flags.find("input");
  const auto output_it = flags.find("output");
  if (input_it == flags.end() || output_it == flags.end()) return Usage();
  const auto threads = ThreadsFlag(flags);
  if (!threads.has_value()) return 1;
  auto loaded = graph::LoadEdgeList(input_it->second, *threads);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const auto& network = loaded.value();
  if (network.num_directed_ties() == 0) {
    std::fprintf(stderr, "error: the network has no directed ties\n");
    return 1;
  }
  core::DeepDirectConfig config =
      core::MethodConfigs::FastDefaults().deepdirect;
  if (flags.contains("dims")) {
    config.dimensions = std::strtoull(flags.at("dims").c_str(), nullptr, 10);
  }
  config.num_threads = *threads;
  config.d_step.num_threads = *threads;
  const auto ckpt = ParseCheckpointFlags(flags);
  if (!ckpt.has_value()) return 1;
  if (!ckpt->dir.empty()) {
    config.checkpoint = {ckpt->dir, "deepdirect.estep", ckpt->policy,
                         ckpt->resume};
    config.d_step.checkpoint = {ckpt->dir, "deepdirect.dstep", ckpt->policy,
                                ckpt->resume};
  }
  std::printf("embedding %zu ties at l=%zu...\n", network.num_ties(),
              config.dimensions);
  const auto model = core::DeepDirectModel::Train(network, config);

  util::CsvWriter csv(output_it->second);
  std::vector<std::string> header{"u", "v"};
  for (size_t k = 0; k < config.dimensions; ++k) {
    header.push_back("m" + std::to_string(k));
  }
  csv.WriteRow(header);
  std::vector<std::string> fields;
  for (size_t e = 0; e < model->index().num_arcs(); ++e) {
    const auto [u, v] = model->index().ArcAt(e);
    const auto row = model->embeddings().Row(e);
    fields.clear();
    fields.push_back(std::to_string(u));
    fields.push_back(std::to_string(v));
    for (float value : row) fields.push_back(std::to_string(value));
    csv.WriteRow(fields);
  }
  std::printf("wrote %zu tie-arc embeddings to %s\n",
              model->index().num_arcs(), output_it->second.c_str());
  return MaybeSaveModel(flags, *model);
}

// Streaming tie-batch update: warm-start from the newest E-step checkpoint
// and absorb one or more delta files without a full retrain. Batches are
// applied in the order given; each chains the state (and merged network)
// into the next. After all batches succeed the updated state is saved back
// into the checkpoint directory so further updates chain across processes.
int RunUpdate(const std::map<std::string, std::string>& flags) {
  const auto input_it = flags.find("input");
  const auto batch_it = flags.find("batch");
  const auto dir_it = flags.find("checkpoint-dir");
  if (input_it == flags.end() || batch_it == flags.end() ||
      dir_it == flags.end() || batch_it->second.empty() ||
      dir_it->second.empty()) {
    return Usage();
  }
  const auto threads = ThreadsFlag(flags);
  if (!threads.has_value()) return 1;

  core::IncrementalOptions options;
  if (flags.contains("epochs-per-batch")) {
    options.epochs_per_batch = std::atof(flags.at("epochs-per-batch").c_str());
  }

  auto state_result = train::LoadEStepState(dir_it->second);
  if (!state_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 state_result.status().ToString().c_str());
    return 1;
  }
  train::EStepState state = std::move(state_result).value();

  auto loaded = graph::LoadEdgeList(input_it->second, *threads);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  graph::MixedSocialNetwork network = std::move(loaded).value();

  // The hyperparameters mirror the training CLI's defaults; the embedding
  // width is dictated by the checkpointed state, not a flag.
  core::DeepDirectConfig config =
      core::MethodConfigs::FastDefaults().deepdirect;
  config.dimensions = state.dimensions;
  config.num_threads = *threads;
  config.d_step.num_threads = *threads;
  if (flags.contains("seed")) {
    config.seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  }

  std::printf("warm-starting from %s (epoch %llu, %zu arcs, l=%zu)\n",
              dir_it->second.c_str(),
              static_cast<unsigned long long>(state.epochs_done),
              state.num_arcs, state.dimensions);

  // --batch takes a comma-separated list; each file is one batch, applied
  // in order.
  std::vector<std::string> batch_paths;
  {
    std::string remaining = batch_it->second;
    size_t pos = 0;
    while ((pos = remaining.find(',')) != std::string::npos) {
      batch_paths.push_back(remaining.substr(0, pos));
      remaining.erase(0, pos + 1);
    }
    batch_paths.push_back(remaining);
  }

  std::unique_ptr<core::DeepDirectModel> model;
  for (const std::string& path : batch_paths) {
    auto batch = train::LoadTieBatch(path);
    if (!batch.ok()) {
      std::fprintf(stderr, "error: %s\n", batch.status().ToString().c_str());
      return 1;
    }
    auto updated = core::DeepDirectModel::ApplyTieBatch(
        network, batch.value(), state, config, options);
    if (!updated.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   updated.status().ToString().c_str());
      return 1;
    }
    core::IncrementalUpdate update = std::move(updated).value();
    std::printf(
        "applied %s: +%zu ties (+%zu nodes), %zu affected arcs, "
        "%llu E-step steps\n",
        path.c_str(), update.stats.new_ties, update.stats.new_nodes,
        update.stats.affected_arcs,
        static_cast<unsigned long long>(update.stats.estep_steps));
    network = std::move(update.network);
    state = std::move(update.state);
    model = std::move(update.model);
  }

  const auto saved =
      train::SaveEStepState(dir_it->second, "deepdirect.estep", state);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved updated E-step state (epoch %llu)\n",
              static_cast<unsigned long long>(state.epochs_done));

  if (flags.contains("merged-output")) {
    const auto status =
        graph::SaveEdgeList(network, flags.at("merged-output"));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote merged network to %s\n",
                flags.at("merged-output").c_str());
  }

  if (model == nullptr) {
    // Zero batch files cannot reach here (--batch is required and yields
    // at least one path), but guard the dereferences below anyway.
    std::fprintf(stderr, "error: no batches applied\n");
    return 1;
  }

  if (flags.contains("output")) {
    util::CsvWriter csv(flags.at("output"));
    csv.WriteRow({"proposer", "responder", "confidence"});
    const auto predictions = core::DiscoverDirections(network, *model);
    for (const auto& p : predictions) {
      csv.WriteRow({std::to_string(p.source), std::to_string(p.target),
                    std::to_string(p.confidence)});
    }
    std::printf("predicted directions for %zu undirected ties\n",
                predictions.size());
    std::printf("wrote %s\n", flags.at("output").c_str());
  }
  if (flags.contains("truth")) {
    const int rc = ReportTruthAccuracy(flags.at("truth"), *model);
    if (rc != 0) return rc;
  }
  return MaybeSaveModel(flags, *model);
}

// Opens a servable model and answers queries over stdin/stdout until EOF
// or "quit". Banners and the final summary go to stderr so stdout carries
// nothing but protocol responses (scripted clients diff it directly).
int RunServe(const std::map<std::string, std::string>& flags) {
  const auto model_it = flags.find("model");
  if (model_it == flags.end() || model_it->second.empty()) return Usage();
  serve::ServeOptions options;
  options.cache_capacity = 4096;
  const auto size_flag = [&](const char* name, size_t* value) -> bool {
    if (!flags.contains(name)) return true;
    const auto parsed = ParseThreads(flags.at(name));
    if (!parsed.has_value()) {
      std::fprintf(stderr, "error: --%s expects a number, got '%s'\n", name,
                   flags.at(name).c_str());
      return false;
    }
    *value = *parsed;
    return true;
  };
  if (!size_flag("cache", &options.cache_capacity) ||
      !size_flag("ways", &options.cache_ways)) {
    return 1;
  }
  auto opened = serve::ServableModel::Open(model_it->second, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const serve::ServableModel model = std::move(opened).value();
  std::fprintf(stderr,
               "serving %llu tie arcs over %llu nodes (l=%llu, cache %zu)\n",
               static_cast<unsigned long long>(model.num_arcs()),
               static_cast<unsigned long long>(model.num_nodes()),
               static_cast<unsigned long long>(model.dimensions()),
               options.cache_capacity);
  // Unsynced, untied standard streams read piped requests in bulk; the
  // loop still flushes every response, so closed-loop clients work.
  std::ios::sync_with_stdio(false);
  std::cin.tie(nullptr);
  const auto stats = serve::RunServeLoop(model, std::cin, std::cout);
  std::fprintf(stderr,
               "served %llu queries over %llu requests (%llu malformed)\n",
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.lines),
               static_cast<unsigned long long>(stats.errors));
  return 0;
}

// Writes the metrics snapshot accumulated during this invocation.
// Extension picks the format: .csv = long-form CSV, anything else = JSON.
int WriteMetricsSnapshot(const std::string& path) {
  const auto snapshot = obs::Registry::Default().Snapshot();
  const bool csv = path.size() >= 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0;
  const auto status =
      csv ? snapshot.WriteCsv(path) : snapshot.WriteJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote metrics snapshot to %s\n", path.c_str());
  return 0;
}

int Dispatch(const std::string& command,
             const std::map<std::string, std::string>& flags) {
  if (command == "generate") return RunGenerate(flags);
  if (command == "discover" || command == "quantify") {
    return RunDiscoverOrQuantify(command, flags);
  }
  if (command == "embed") return RunEmbed(flags);
  if (command == "update") return RunUpdate(flags);
  if (command == "serve") return RunServe(flags);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  // Kernel dispatch must be pinned before any trainer touches the SIMD
  // layer; the flag overrides the DD_KERNELS environment default.
  if (flags.contains("kernels") &&
      !kernels::SetMode(flags.at("kernels"))) {
    std::fprintf(stderr,
                 "error: --kernels expects auto|scalar|simd, got '%s'\n",
                 flags.at("kernels").c_str());
    return 2;
  }
  // Telemetry must be switched on before any work runs so graph loading
  // and every trainer record into the snapshot / trace timeline.
  const bool want_metrics = flags.contains("metrics-out");
  if (want_metrics) obs::Registry::Default().set_enabled(true);
  const bool want_trace = flags.contains("trace-out");
  if (want_trace) obs::TraceBuffer::Default().set_enabled(true);

  std::optional<obs::TimelineWriter> timeline;
  if (flags.contains("metrics-interval-sec")) {
    if (!want_metrics) {
      std::fprintf(stderr,
                   "error: --metrics-interval-sec requires --metrics-out\n");
      return 2;
    }
    const double interval = std::atof(flags.at("metrics-interval-sec").c_str());
    if (interval <= 0.0) {
      std::fprintf(stderr,
                   "error: --metrics-interval-sec expects a positive number,"
                   " got '%s'\n",
                   flags.at("metrics-interval-sec").c_str());
      return 2;
    }
    timeline.emplace(flags.at("metrics-out") + ".timeline.jsonl", interval);
    const auto status = timeline->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  const int rc = Dispatch(command, flags);
  if (timeline.has_value()) timeline->Stop();
  if (want_trace && rc == 0) {
    const auto status =
        obs::TraceBuffer::Default().WriteChromeTrace(flags.at("trace-out"));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace timeline to %s\n",
                flags.at("trace-out").c_str());
  }
  if (want_metrics && rc == 0) {
    return WriteMetricsSnapshot(flags.at("metrics-out"));
  }
  return rc;
}
