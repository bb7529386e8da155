// tdl_cli: a command-line front end to the library for file-based use.
//
//   tdl_cli generate --dataset twitter [--scale 1.0] --output net.edges
//       Writes a synthetic mixed social network in edge-list format.
//
//   tdl_cli discover --input net.edges [--method deepdirect]
//                    [--output predictions.csv] [--hide 0.5 [--seed 42]]
//       Trains the chosen method on the network's directed ties and
//       predicts the direction of every undirected tie. With --hide F, the
//       input's directed ties are first split (F remain directed, drawn
//       with --seed) and the prediction accuracy on the hidden part is
//       reported.
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
//       embed when the method is deepdirect, in RAM or with --shards). See
//       serve/server.h for the line protocol.
//
// Methods: deepdirect (default), hf, line, redirect-n, redirect-t.
//
// Each command accepts exactly the flags it reads (kCommandFlags) plus the
// global --kernels, --metrics-out, --trace-out and --metrics-interval-sec;
// any other flag, a typo among them, exits 1 before any input is read.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
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
#include "util/check.h"
#include "util/csv_writer.h"
#include "util/random.h"

namespace {

using namespace deepdirect;

using Flags = std::map<std::string, std::string>;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tdl_cli generate --dataset <name> [--scale S] [--stream]"
               " --output F\n"
               "  tdl_cli discover --input F [--method M] [--output F]"
               " [--hide F [--seed N]] [--threads N] [--epochs E]\n"
               "                   [--shards N --shard-dir D"
               " [--shard-ram-mb M]]\n"
               "                   [--checkpoint-dir D [--checkpoint-every N]"
               " [--checkpoint-keep K] [--resume]]\n"
               "                   [--save-model F] [--truth F]\n"
               "  tdl_cli quantify --input F [--method M] [--output F]"
               " [--threads N] [--epochs E]\n"
               "                   [--shards N --shard-dir D"
               " [--shard-ram-mb M]]\n"
               "                   [--checkpoint-dir D [--checkpoint-every N]"
               " [--checkpoint-keep K] [--resume]]\n"
               "                   [--save-model F]\n"
               "  tdl_cli embed    --input F --output F [--dims N]"
               " [--threads N]\n"
               "                   [--checkpoint-dir D [--checkpoint-every N]"
               " [--checkpoint-keep K] [--resume]]\n"
               "                   [--save-model F]\n"
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
               " the\n  deepdirect method, in RAM or with --shards), export"
               " the model in the\n  mmap-friendly servable format"
               " `tdl_cli serve` consumes\n"
               "serve: one request per stdin line — `u v [u v ...]` answers"
               " one\n  d(u,v) per pair (NA for unknown ties), `stats` prints"
               " cache counters,\n  `quit` exits; --cache sets the hot-tie"
               " cache capacity in slots\n  (default 4096, 0 = off),"
               " --ways its set associativity (default 8)\n"
               "--stream: generate straight to disk without building the"
               " network in\n  RAM (the path for 10M+-tie graphs feeding"
               " out-of-core training)\n"
               "--shards/--shard-dir/--shard-ram-mb: train DeepDirect"
               " out-of-core —\n  the embedding matrices live in one mmap'd"
               " file under --shard-dir with\n  at most --shard-ram-mb MB"
               " (default 256) of its pages resident;\n  --shards sets how"
               " many arc ranges two or more workers split it into;\n"
               "  single-threaded sharded runs are bit-identical to in-RAM"
               " training;\n  sharded runs cannot checkpoint yet\n"
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

// Strict numeric flags. An absent flag takes `fallback`. A present one
// must be, as a whole, a base-10 integer (IntFlag) or a real number
// (RealFlag) in [lo, hi]; otherwise the parser prints an error and returns
// nullopt, and the command exits 1 before it reads any input. (atof and
// strtoull alone turn "abc" into 0 and "-1" into a huge count.)
std::optional<uint64_t> IntFlag(const Flags& flags, const char* name,
                                uint64_t fallback, uint64_t lo, uint64_t hi) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (!text.empty() && std::isdigit(static_cast<unsigned char>(text[0])) &&
      *end == '\0' && errno == 0 && value >= lo && value <= hi) {
    return value;
  }
  std::fprintf(stderr,
               "error: --%s expects an integer in [%llu, %llu], got '%s'\n",
               name, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi), text.c_str());
  return std::nullopt;
}

std::optional<double> RealFlag(const Flags& flags, const char* name,
                               double fallback, double lo, double hi) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // The range test also rejects NaN.
  if (!text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
      *end == '\0' && value >= lo && value <= hi) {
    return value;
  }
  std::fprintf(stderr, "error: --%s expects a number in [%g, %g], got '%s'\n",
               name, lo, hi, text.c_str());
  return std::nullopt;
}

// Upper bounds of the size flags: far above any useful value, low enough
// that no typo spawns a million threads or a million arc ranges.
constexpr uint64_t kMaxThreads = 1024;
constexpr uint64_t kMaxShards = 1 << 16;

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
Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
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

// The flags every command accepts, read by main.
const std::set<std::string> kGlobalFlags = {
    "kernels", "metrics-out", "trace-out", "metrics-interval-sec"};

// The flags each command reads; the checkpoint family appears where
// ParseCheckpointFlags runs.
const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"generate", {"dataset", "output", "scale", "stream"}},
    {"discover",
     {"input", "method", "output", "hide", "seed", "threads", "epochs",
      "shards", "shard-dir", "shard-ram-mb", "checkpoint-dir",
      "checkpoint-every", "checkpoint-keep", "resume", "save-model",
      "truth"}},
    {"quantify",
     {"input", "method", "output", "threads", "epochs", "shards",
      "shard-dir", "shard-ram-mb", "checkpoint-dir", "checkpoint-every",
      "checkpoint-keep", "resume", "save-model"}},
    {"embed",
     {"input", "output", "threads", "dims", "checkpoint-dir",
      "checkpoint-every", "checkpoint-keep", "resume", "save-model"}},
    {"update",
     {"input", "batch", "checkpoint-dir", "threads", "epochs-per-batch",
      "seed", "output", "merged-output", "truth", "save-model"}},
    {"serve", {"model", "cache", "ways"}},
};

// False after printing an error when `flags` holds a key that `command`
// does not read (a misspelled flag would otherwise be ignored and the run
// would train with defaults).
bool FlagsKnown(const std::set<std::string>& known, const std::string& command,
                const Flags& flags) {
  for (const auto& [key, value] : flags) {
    if (!known.contains(key) && !kGlobalFlags.contains(key)) {
      std::fprintf(stderr, "error: %s does not take --%s\n", command.c_str(),
                   key.c_str());
      return false;
    }
  }
  return true;
}

// The --metrics-interval-sec timeline writer, configured by main and
// started by a command once its own flags have validated, so a run
// rejected for a bad flag writes no timeline file. Null when not asked
// for. False after printing an error.
bool StartTimeline(obs::TimelineWriter* timeline) {
  if (timeline == nullptr) return true;
  const auto status = timeline->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  }
  return status.ok();
}

int RunGenerate(const Flags& flags, obs::TimelineWriter* timeline) {
  const auto dataset_it = flags.find("dataset");
  const auto output_it = flags.find("output");
  if (dataset_it == flags.end() || output_it == flags.end()) return Usage();
  const auto dataset = ParseDataset(dataset_it->second);
  if (!dataset.has_value()) return Usage();
  // A generated network needs at least 3 nodes: llround(base · scale) ≥ 3.
  const double base_nodes =
      static_cast<double>(data::DatasetConfig(*dataset, 1.0).num_nodes);
  const auto scale = RealFlag(flags, "scale", 1.0, 2.5 / base_nodes, 1e4);
  if (!scale.has_value() || !StartTimeline(timeline)) return 1;

  if (flags.contains("stream")) {
    // Stream the tie sequence straight to disk — same process, same RNG
    // stream, so the file matches what SaveEdgeList would have written,
    // without ever holding the network in RAM.
    const auto config = data::DatasetConfig(*dataset, *scale);
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

  const auto net = data::MakeDataset(*dataset, *scale);
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
// is malformed or --resume, --checkpoint-every or --checkpoint-keep is given
// without --checkpoint-dir.
std::optional<CheckpointFlags> ParseCheckpointFlags(
    const Flags& flags) {
  CheckpointFlags out;
  if (flags.contains("checkpoint-dir")) out.dir = flags.at("checkpoint-dir");
  out.resume = flags.contains("resume");
  for (const char* name : {"resume", "checkpoint-every", "checkpoint-keep"}) {
    if (flags.contains(name) && out.dir.empty()) {
      std::fprintf(stderr, "error: --%s requires --checkpoint-dir\n", name);
      return std::nullopt;
    }
  }
  // A cadence of 0 would write no checkpoint at all, not even the final
  // state promised below.
  const auto every = IntFlag(flags, "checkpoint-every",
                             out.policy.every_n_epochs, 1, UINT64_MAX);
  const auto keep =
      IntFlag(flags, "checkpoint-keep", out.policy.keep_last, 0, UINT64_MAX);
  if (!every.has_value() || !keep.has_value()) return std::nullopt;
  out.policy.every_n_epochs = *every;
  out.policy.keep_last = static_cast<size_t>(*keep);
  // CLI runs always persist the final E-step state: `tdl_cli update`
  // warm-starts from it, and an ordinary resume snapshot is one epoch
  // short of the model the run actually produced.
  out.policy.write_final = true;
  return out;
}

// The optional --threads flag: 1 (the deterministic serial default) when
// absent, 0 = all cores.
std::optional<uint64_t> ThreadsFlag(const Flags& flags) {
  return IntFlag(flags, "threads", 1, 0, kMaxThreads);
}

// Checks --save-model before any input is read: only a DeepDirect model,
// in RAM or out of core, has a servable export. False after printing an
// error.
bool SaveModelAllowed(const Flags& flags, core::Method method) {
  if (!flags.contains("save-model")) return true;
  const char* error = nullptr;
  if (flags.at("save-model").empty()) {
    error = "--save-model expects a path";
  } else if (method != core::Method::kDeepDirect) {
    error = "--save-model requires --method deepdirect (other methods have "
            "no servable form)";
  }
  if (error != nullptr) std::fprintf(stderr, "error: %s\n", error);
  return error == nullptr;
}

// Handles --save-model (checked by SaveModelAllowed before training):
// exports `model`, a DeepDirect model, in the servable DDS1 format.
// Returns 0, or 1 after printing an error.
int MaybeSaveModel(const Flags& flags,
                   const core::DirectionalityModel& model) {
  if (!flags.contains("save-model")) return 0;
  const std::string& path = flags.at("save-model");
  const auto* deepdirect =
      dynamic_cast<const core::DeepDirectModel*>(&model);
  DD_CHECK(deepdirect != nullptr);
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
    std::istringstream fields(line);
    long long u = -1;
    long long v = -1;
    std::string trailing;
    if (!(fields >> u >> v) || fields >> trailing) {
      std::fprintf(stderr, "error: %s line %zu: expected 'u v', got '%s'\n",
                   path.c_str(), line_no, line.c_str());
      return 1;
    }
    // As in graph::ParseTieLine: an id that a NodeId cannot hold would
    // wrap onto another node.
    for (const long long id : {u, v}) {
      if (id < 0 || static_cast<unsigned long long>(id) >= graph::kMaxNodes) {
        std::fprintf(stderr,
                     "error: %s line %zu: node id %lld is not in [0, %zu)\n",
                     path.c_str(), line_no, id, graph::kMaxNodes);
        return 1;
      }
    }
    const auto d_uv = model.TryDirectionality(static_cast<graph::NodeId>(u),
                                              static_cast<graph::NodeId>(v));
    const auto d_vu = model.TryDirectionality(static_cast<graph::NodeId>(v),
                                              static_cast<graph::NodeId>(u));
    if (!d_uv.ok() || !d_vu.ok()) {
      std::fprintf(stderr,
                   "error: %s line %zu: tie %lld %lld is not evaluable by "
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

int RunDiscoverOrQuantify(const std::string& command, const Flags& flags,
                          obs::TimelineWriter* timeline) {
  const auto input_it = flags.find("input");
  if (input_it == flags.end()) return Usage();
  const auto method =
      ParseMethod(flags.contains("method") ? flags.at("method")
                                           : "deepdirect");
  if (!method.has_value()) return Usage();

  // Every flag is checked before the input is read.
  auto configs = core::MethodConfigs::FastDefaults();
  const auto threads = ThreadsFlag(flags);
  const auto seed = IntFlag(flags, "seed", 42, 0, UINT64_MAX);
  const auto hide = RealFlag(flags, "hide", 0.0, 0.0, 1.0);
  const auto epochs =
      RealFlag(flags, "epochs", configs.deepdirect.epochs, 0.0, 1e6);
  // The --shards family routes DeepDirect training out-of-core.
  const auto shards = IntFlag(flags, "shards", 0, 0, kMaxShards);
  const auto shard_ram_mb = IntFlag(flags, "shard-ram-mb", 256, 0, 1 << 20);
  const auto ckpt = ParseCheckpointFlags(flags);
  if (!threads.has_value() || !seed.has_value() || !hide.has_value() ||
      !epochs.has_value() || !shards.has_value() ||
      !shard_ram_mb.has_value() || !ckpt.has_value() ||
      !SaveModelAllowed(flags, *method)) {
    return 1;
  }
  // The seed only draws the hidden split; the trainers keep their own.
  if (flags.contains("seed") && !flags.contains("hide")) {
    std::fprintf(stderr, "error: --seed picks the --hide split and needs "
                         "--hide\n");
    return 1;
  }
  if (*shards > 0) {
    if (*method != core::Method::kDeepDirect) {
      std::fprintf(stderr,
                   "error: --shards requires --method deepdirect\n");
      return 1;
    }
    if (!ckpt->dir.empty()) {
      std::fprintf(stderr, "error: --shards cannot be combined with "
                           "--checkpoint-dir (sharded runs cannot "
                           "checkpoint yet)\n");
      return 1;
    }
    if (!flags.contains("shard-dir") || flags.at("shard-dir").empty()) {
      std::fprintf(stderr, "error: --shards requires --shard-dir\n");
      return 1;
    }
  } else {
    for (const char* name : {"shard-dir", "shard-ram-mb"}) {
      if (flags.contains(name)) {
        std::fprintf(stderr, "error: --%s requires --shards above 0\n",
                     name);
        return 1;
      }
    }
  }
  if (!StartTimeline(timeline)) return 1;

  auto loaded = graph::LoadEdgeList(input_it->second, *threads);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }

  graph::MixedSocialNetwork network = std::move(loaded).value();
  std::optional<graph::HiddenDirectionSplit> split;
  if (command == "discover" && flags.contains("hide")) {
    util::Rng rng(*seed);
    split = graph::HideDirections(network, 1.0 - *hide, rng);
    if (split->hidden_true_arcs.empty()) {
      std::fprintf(stderr,
                   "error: --hide %s hides no directed tie of this network, "
                   "so there is no accuracy to report\n",
                   flags.at("hide").c_str());
      return 1;
    }
  }
  const graph::MixedSocialNetwork& train_net =
      split.has_value() ? split->network : network;

  if (train_net.num_directed_ties() == 0) {
    std::fprintf(stderr,
                 "error: the network has no directed ties; the TDL problem "
                 "needs labeled data\n");
    return 1;
  }

  configs.SetNumThreads(*threads);
  if (!ckpt->dir.empty()) {
    configs.SetCheckpointing(ckpt->dir, ckpt->policy, ckpt->resume);
  }
  configs.deepdirect.epochs = *epochs;

  std::printf("training %s on %zu nodes / %zu ties (%zu directed)...\n",
              core::MethodName(*method), train_net.num_nodes(),
              train_net.num_ties(), train_net.num_directed_ties());
  std::unique_ptr<core::DirectionalityModel> model;
  if (*shards > 0) {
    core::DeepDirectConfig config = configs.deepdirect;
    config.sharding.num_shards = *shards;
    config.sharding.dir = flags.at("shard-dir");
    config.sharding.ram_budget_mb = *shard_ram_mb;
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

int RunEmbed(const Flags& flags, obs::TimelineWriter* timeline) {
  const auto input_it = flags.find("input");
  const auto output_it = flags.find("output");
  if (input_it == flags.end() || output_it == flags.end()) return Usage();
  core::DeepDirectConfig config =
      core::MethodConfigs::FastDefaults().deepdirect;
  const auto threads = ThreadsFlag(flags);
  const auto dims = IntFlag(flags, "dims", config.dimensions, 1, 4096);
  const auto ckpt = ParseCheckpointFlags(flags);
  if (!threads.has_value() || !dims.has_value() || !ckpt.has_value() ||
      !SaveModelAllowed(flags, core::Method::kDeepDirect) ||
      !StartTimeline(timeline)) {
    return 1;
  }
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
  config.dimensions = *dims;
  config.num_threads = *threads;
  config.d_step.num_threads = *threads;
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
int RunUpdate(const Flags& flags, obs::TimelineWriter* timeline) {
  const auto input_it = flags.find("input");
  const auto batch_it = flags.find("batch");
  const auto dir_it = flags.find("checkpoint-dir");
  if (input_it == flags.end() || batch_it == flags.end() ||
      dir_it == flags.end() || batch_it->second.empty() ||
      dir_it->second.empty()) {
    return Usage();
  }
  // The hyperparameters mirror the training CLI's defaults; the embedding
  // width is dictated by the checkpointed state, not a flag.
  core::DeepDirectConfig config =
      core::MethodConfigs::FastDefaults().deepdirect;
  core::IncrementalOptions options;
  const auto threads = ThreadsFlag(flags);
  const auto epochs_per_batch = RealFlag(
      flags, "epochs-per-batch", options.epochs_per_batch, 0.0, 1e6);
  const auto seed = IntFlag(flags, "seed", config.seed, 0, UINT64_MAX);
  if (!threads.has_value() || !epochs_per_batch.has_value() ||
      !seed.has_value() ||
      !SaveModelAllowed(flags, core::Method::kDeepDirect) ||
      !StartTimeline(timeline)) {
    return 1;
  }
  options.epochs_per_batch = *epochs_per_batch;
  config.seed = *seed;

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

  config.dimensions = state.dimensions;
  config.num_threads = *threads;
  config.d_step.num_threads = *threads;

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
int RunServe(const Flags& flags, obs::TimelineWriter* timeline) {
  const auto model_it = flags.find("model");
  if (model_it == flags.end() || model_it->second.empty()) return Usage();
  serve::ServeOptions options;
  const auto cache = IntFlag(flags, "cache", 4096, 0, 1 << 26);
  const auto ways = IntFlag(flags, "ways", options.cache_ways, 1, 1024);
  if (!cache.has_value() || !ways.has_value() || !StartTimeline(timeline)) {
    return 1;
  }
  options.cache_capacity = *cache;
  options.cache_ways = *ways;
  auto opened = serve::ServableModel::Open(model_it->second, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const serve::ServableModel model = std::move(opened).value();
  std::fprintf(stderr,
               "serving %llu tie arcs over %llu nodes (cache %zu)\n",
               static_cast<unsigned long long>(model.num_arcs()),
               static_cast<unsigned long long>(model.num_nodes()),
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

int Dispatch(const std::string& command, const Flags& flags,
             obs::TimelineWriter* timeline) {
  if (command == "generate") return RunGenerate(flags, timeline);
  if (command == "discover" || command == "quantify") {
    return RunDiscoverOrQuantify(command, flags, timeline);
  }
  if (command == "embed") return RunEmbed(flags, timeline);
  if (command == "update") return RunUpdate(flags, timeline);
  return RunServe(flags, timeline);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto known = kCommandFlags.find(command);
  if (known == kCommandFlags.end()) return Usage();
  const auto flags = ParseFlags(argc, argv, 2);
  if (!FlagsKnown(known->second, command, flags)) return 1;
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
    const auto interval =
        RealFlag(flags, "metrics-interval-sec", 1.0, 1e-3, 86400.0);
    if (!interval.has_value()) return 2;
    timeline.emplace(flags.at("metrics-out") + ".timeline.jsonl", *interval);
  }

  const int rc =
      Dispatch(command, flags, timeline.has_value() ? &*timeline : nullptr);
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
