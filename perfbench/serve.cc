// The serve workload. A Tencent-config model is trained, exported and
// opened once with `tdl_cli serve`'s 4096-slot hot-tie cache in set-up.
// The timed section runs kClients closed-loop clients, each driving its own
// serve::RunServeLoop over the shared model with zero think time: a client
// hands the loop its next request line only after the previous response
// line has been flushed. Requests are 64 pairs drawn Zipf(s=1) over closure
// arcs, with about 1% of pairs hosting no tie (they must answer NA).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/datasets.h"
#include "graph/graph_io.h"
#include "serve/server.h"

namespace perfbench {

using namespace deepdirect;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kServeScale = 1.0;
constexpr size_t kCacheSlots = 4096;  // tdl_cli serve's default
constexpr size_t kPairsPerRequest = 64;
constexpr double kUnknownShare = 0.01;
constexpr size_t kPoolLines = 2048;  // distinct request lines per client
/// Every kCheckEvery-th response is parsed back in full. The checked
/// lines shift by one on each pass over the pool, so every line is checked.
constexpr size_t kCheckEvery = 8;

struct Request {
  std::string line;  ///< "u v u v ...\n"
  std::vector<serve::TiePair> pairs;
  std::vector<double> expected;  ///< NaN where the pair hosts no tie
  uint32_t unknown = 0;
};

/// True when every token of `response` is the "%.6f" rendering of the
/// expected value, or "NA" for a pair that hosts no tie.
bool MatchesExpected(const Request& request, const std::string& response) {
  size_t pos = 0;
  char rendered[32];
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    const size_t end = response.find_first_of(" \n", pos);
    if (end == std::string::npos) return false;
    const std::string_view token(response.data() + pos, end - pos);
    if (std::isnan(request.expected[i])) {
      if (token != "NA") return false;
    } else {
      std::snprintf(rendered, sizeof(rendered), "%.6f", request.expected[i]);
      if (token != rendered) return false;
    }
    pos = end + 1;
  }
  return pos == response.size();
}

class Client;

/// Input side of the in-process transport: hands RunServeLoop one request
/// line per underflow, i.e. only once the previous line was consumed and
/// answered.
class RequestBuf final : public std::streambuf {
 public:
  explicit RequestBuf(Client* client) : client_(client) {}

 protected:
  int_type underflow() override;

 private:
  Client* client_;
  std::string line_;
};

/// Output side: buffers a response line and delivers it on flush, which
/// RunServeLoop issues after every response.
class ResponseBuf final : public std::streambuf {
 public:
  explicit ResponseBuf(Client* client) : client_(client), buffer_(1 << 14) {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

 protected:
  int_type overflow(int_type ch) override {
    response_.append(pbase(), pptr());
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      response_.push_back(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  int sync() override;

 private:
  Client* client_;
  std::vector<char> buffer_;
  std::string response_;
};

/// One closed-loop client: its own request pool, serve loop and latency
/// record. The record has a fixed size and is built with the client, so
/// the memory a run measures does not grow with the number of requests.
class Client {
 public:
  explicit Client(const std::vector<Request>& pool) : pool_(pool) {}

  /// Serves requests until `deadline` (seconds on the Now() clock).
  void Run(const serve::ServableModel& model, double deadline) {
    deadline_ = deadline;
    RequestBuf requests(this);
    ResponseBuf responses(this);
    std::istream in(&requests);
    std::ostream out(&responses);
    loop_ = serve::RunServeLoop(model, in, out);
  }

  /// The next request line, or nullptr once the deadline has passed.
  const std::string* Next() {
    if (Now() >= deadline_) return nullptr;
    current_ = &pool_[sent_ % pool_.size()];
    ++sent_;
    start_ = Clock::now();
    return &current_->line;
  }

  void OnResponse(Clock::time_point end, const std::string& response) {
    latencies_.Add(std::chrono::duration<double>(end - start_).count());
    const Request& request = *current_;
    pairs_ += request.pairs.size();
    // Every response: one token per pair and NA exactly as often as the
    // request carried unknown pairs. Every kCheckEvery-th: each value.
    size_t tokens = response.empty() ? 0 : 1;
    size_t na = 0;
    for (size_t i = 0; i < response.size(); ++i) {
      if (response[i] == ' ') ++tokens;
      if (response[i] == 'N' && i + 1 < response.size() &&
          response[i + 1] == 'A') {
        ++na;
      }
    }
    na_ += na;
    bool ok = tokens == request.pairs.size() && na == request.unknown &&
              !response.empty() && response.back() == '\n';
    const size_t index = sent_ - 1;
    if (ok && (index + index / pool_.size()) % kCheckEvery == 0) {
      ok = MatchesExpected(request, response);
    }
    if (!ok) {
      ++failed_;
      if (first_failure_.empty()) {
        first_failure_ = "request '" + request.line.substr(0, 40) +
                         "...' answered '" + response.substr(0, 60) + "...'";
      }
    }
  }

  const LatencyHistogram& latencies() const { return latencies_; }
  size_t sent() const { return sent_; }
  uint64_t pairs() const { return pairs_; }
  uint64_t na() const { return na_; }
  uint64_t failed() const { return failed_ + loop_.errors; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  const std::vector<Request>& pool_;
  double deadline_ = 0.0;
  size_t sent_ = 0;
  const Request* current_ = nullptr;
  Clock::time_point start_;
  LatencyHistogram latencies_;
  uint64_t pairs_ = 0;
  uint64_t na_ = 0;
  uint64_t failed_ = 0;
  std::string first_failure_;
  serve::ServeLoopStats loop_;
};

RequestBuf::int_type RequestBuf::underflow() {
  const std::string* line = client_->Next();
  if (line == nullptr) return traits_type::eof();
  line_ = *line;
  setg(line_.data(), line_.data(), line_.data() + line_.size());
  return traits_type::to_int_type(line_[0]);
}

int ResponseBuf::sync() {
  const Clock::time_point end = Clock::now();
  response_.append(pbase(), pptr());
  setp(buffer_.data(), buffer_.data() + buffer_.size());
  client_->OnResponse(end, response_);
  response_.clear();
  return 0;
}

/// Request lines for one client: pairs drawn Zipf(s=1) over the closure
/// arcs (rank order shuffled by `rng`), each replaced with probability
/// kUnknownShare by a random node pair that hosts no tie.
std::vector<Request> MakePool(const core::DeepDirectModel& model,
                              const std::vector<uint32_t>& arc_of_rank,
                              const std::vector<double>& zipf_cdf,
                              util::Rng& rng) {
  const core::TieIndex& index = model.index();
  std::vector<Request> pool(kPoolLines);
  for (Request& request : pool) {
    for (size_t p = 0; p < kPairsPerRequest; ++p) {
      serve::TiePair pair;
      double expected = std::numeric_limits<double>::quiet_NaN();
      if (rng.NextDouble() < kUnknownShare) {
        do {
          pair.u = static_cast<graph::NodeId>(rng.NextIndex(index.num_nodes()));
          pair.v = static_cast<graph::NodeId>(rng.NextIndex(index.num_nodes()));
        } while (pair.u == pair.v ||
                 index.TryIndexOf(pair.u, pair.v) != index.num_arcs());
        ++request.unknown;
      } else {
        const double x = rng.NextDouble() * zipf_cdf.back();
        const size_t rank = static_cast<size_t>(
            std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), x) -
            zipf_cdf.begin());
        const auto [u, v] =
            index.ArcAt(arc_of_rank[std::min(rank, zipf_cdf.size() - 1)]);
        pair = {u, v};
        expected = model.Directionality(u, v);
      }
      request.pairs.push_back(pair);
      request.expected.push_back(expected);
      request.line += std::to_string(pair.u) + ' ' + std::to_string(pair.v) +
                      (p + 1 == kPairsPerRequest ? '\n' : ' ');
    }
  }
  return pool;
}

}  // namespace

Result RunServe(const Options& options) {
  Result result;
  result.op_name = "request";
  result.clients = kClients;
  const std::string edges = options.work_dir + "/serve.edges";
  const std::string dds = options.work_dir + "/serve.dds";
  const core::DeepDirectConfig config = TrainConfig();

  std::optional<serve::ServableModel> served;
  std::vector<std::vector<Request>> pools;
  std::vector<serve::TiePair> hidden;
  std::vector<double> hidden_expected;
  const auto set_up = [&]() -> util::Status {
    data::GeneratorConfig generator =
        data::DatasetConfig(data::DatasetId::kTencent, kServeScale);
    generator.seed = DeriveSeed(options.seed, 31);
    DD_RETURN_NOT_OK(data::WriteStatusNetworkEdgeList(generator, edges));
    auto loaded = graph::LoadEdgeList(edges, kWorkers);
    DD_RETURN_NOT_OK(loaded.status());
    util::Rng rng(DeriveSeed(options.seed, 32));
    const graph::HiddenDirectionSplit split =
        graph::HideDirections(loaded.value(), 0.5, rng);
    const auto model = core::DeepDirectModel::Train(split.network, config);
    Bytes bytes;
    Result open_result;
    if (!ExportAndOpen(*model, dds, kCacheSlots, &served, &bytes,
                       &open_result)) {
      return util::Status::IOError(open_result.failures.front());
    }

    const size_t num_arcs = model->index().num_arcs();
    std::vector<uint32_t> arc_of_rank(num_arcs);
    std::iota(arc_of_rank.begin(), arc_of_rank.end(), 0u);
    rng.Shuffle(arc_of_rank);
    std::vector<double> zipf_cdf(num_arcs);
    double total = 0.0;
    for (size_t r = 0; r < num_arcs; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf[r] = total;
    }
    pools.clear();
    for (size_t c = 0; c < kClients; ++c) {
      pools.push_back(MakePool(*model, arc_of_rank, zipf_cdf, rng));
    }
    hidden = HiddenPairs(split);
    hidden_expected.clear();
    for (const serve::TiePair& pair : hidden) {
      hidden_expected.push_back(model->Directionality(pair.u, pair.v));
    }
    result.graphs.assign(1, StampOf("serve", model->index()));
    return util::Status::OK();
  };
  if (!result.TimeSetUp(set_up)) return result;
  const serve::ServableModel& model = *served;

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(pools[c]));
  }
  Ledger ledger(options.trace);
  StartPeakRss();
  ledger.Begin();
  const serve::TieCacheStats before = model.CacheStats();
  const double start = Now();
  {
    obs::TraceSpan span("pb.serve_clients");
    const double deadline = start + options.seconds;
    std::vector<std::jthread> threads;
    for (const auto& client : clients) {
      threads.emplace_back(
          [&client, &model, deadline] { client->Run(model, deadline); });
    }
  }
  const double window = Now() - start;
  const serve::TieCacheStats after = model.CacheStats();

  // Traced runs replay each client's request lines straight through
  // QueryBatch, concurrently as served: the protocol's share of a request
  // is serve_p50_us minus this.
  std::vector<std::vector<double>> replay_s(kClients);
  if (ledger.enabled()) {
    obs::TraceSpan span("pb.query_batch");
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> values(kPairsPerRequest);
        for (const Request& request : pools[c]) {
          const Clock::time_point t0 = Clock::now();
          const util::Status status = model.QueryBatch(
              request.pairs, values, serve::MissingPolicy::kNan);
          replay_s[c].push_back(
              std::chrono::duration<double>(Clock::now() - t0).count());
          if (!status.ok()) replay_s[c].back() = -1.0;
        }
      });
    }
  }
  {
    obs::TraceSpan span("pb.check");
    std::vector<double> values(hidden.size());
    if (result.Check(model.QueryBatch(hidden, values), "QueryBatch")) {
      for (size_t i = 0; i < hidden.size(); ++i) {
        if (std::bit_cast<uint64_t>(values[i]) !=
            std::bit_cast<uint64_t>(hidden_expected[i])) {
          result.Fail("served value differs from the in-memory model");
          break;
        }
      }
      result.accuracy = PairAccuracy(values);
    }
  }
  ledger.End();
  result.peak_rss_mb = PeakRssMb();

  uint64_t pairs = 0;
  uint64_t na = 0;
  uint64_t injected = 0;
  LatencyHistogram latencies;
  for (size_t c = 0; c < kClients; ++c) {
    const Client& client = *clients[c];
    latencies.Merge(client.latencies());
    result.attempted += client.latencies().count();
    if (client.failed() > 0) {
      result.failed += client.failed() - 1;
      result.Fail(client.first_failure());
    }
    pairs += client.pairs();
    na += client.na();
    for (size_t i = 0; i < client.sent(); ++i) {
      injected += pools[c][i % pools[c].size()].unknown;
    }
  }
  result.op_times = latencies.Summary();
  const double requests = static_cast<double>(result.op_times.count);
  result.Detail("serve_pairs_per_s", static_cast<double>(pairs) / window,
                "1/s");
  result.Detail("serve_p50_us", result.op_times.p50 * 1e6, "us");
  result.Detail("serve_p99_us", result.op_times.p99 * 1e6, "us");
  result.Detail("serve_requests", requests, "count");
  result.Detail("serve_unknown_pair_frac",
                pairs > 0 ? static_cast<double>(injected) / pairs : 0.0,
                "frac");
  result.Detail("serve_accuracy", result.accuracy, "frac");

  FillCommonLayers(ledger, requests, &result);
  if (ledger.enabled()) {
    std::vector<double> replay;
    for (const auto& per_client : replay_s) {
      for (const double seconds : per_client) {
        if (seconds < 0.0) result.Fail("QueryBatch replay failed");
        replay.push_back(seconds);
      }
    }
    const double lookups =
        static_cast<double>((after.hits - before.hits) +
                            (after.misses - before.misses));
    result.layer["serve.query_batch_us"] = Median(replay) * 1e6;
    result.layer["serve.cache_hit_rate"] =
        lookups > 0.0 ? static_cast<double>(after.hits - before.hits) / lookups
                      : 0.0;
    result.layer["serve.cache_evictions"] =
        requests > 0.0
            ? static_cast<double>(after.evictions - before.evictions) / requests
            : 0.0;
    result.layer["serve.na_frac"] =
        pairs > 0 ? static_cast<double>(na) / static_cast<double>(pairs) : 0.0;
  }
  return result;
}

}  // namespace perfbench
