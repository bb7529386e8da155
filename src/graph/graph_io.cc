#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <new>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace deepdirect::graph {

util::Status SaveEdgeList(const MixedSocialNetwork& g,
                          const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return util::Status::IOError("cannot open for writing: " + path);
  }
  WriteEdgeList(g, out);
  out.flush();
  if (!out.good()) return util::Status::IOError("write failed: " + path);
  return util::Status::OK();
}

void WriteEdgeList(const MixedSocialNetwork& g, std::ostream& out) {
  out << "# nodes " << g.num_nodes() << "\n";
  for (ArcId id = 0; id < g.num_arcs(); ++id) {
    const Arc& a = g.arc(id);
    // Emit each tie once: directed arcs are unique; twins once from the
    // smaller endpoint.
    if (a.type != TieType::kDirected && a.src > a.dst) continue;
    char type_char = 'd';
    if (a.type == TieType::kBidirectional) type_char = 'b';
    if (a.type == TieType::kUndirected) type_char = 'u';
    out << a.src << ' ' << a.dst << ' ' << type_char << "\n";
  }
}

util::Result<MixedSocialNetwork> LoadEdgeList(const std::string& path,
                                              size_t num_threads) {
  std::ifstream in(path, std::ios::ate);
  if (!in.good()) {
    return util::Status::IOError("cannot open for reading: " + path);
  }
  // The end position is the file size — the reserve hint that keeps the
  // tie buffer from doubling its way up through a multi-GB edge list.
  const auto end_pos = in.tellg();
  const size_t size_hint =
      end_pos > 0 ? static_cast<size_t>(end_pos) : 0;
  in.seekg(0);
  return ReadEdgeList(in, num_threads, size_hint);
}

util::Result<MixedSocialNetwork> ReadEdgeList(std::istream& in,
                                              size_t num_threads,
                                              size_t size_hint_bytes) {
  obs::PhaseScope phase("graph.load");
  struct ParsedTie {
    NodeId u, v;
    TieType type;
  };
  std::vector<ParsedTie> ties;
  // See the header: hint/12 deliberately under-estimates the tie count so
  // over-allocation is impossible and at most one growth remains.
  if (size_hint_bytes > 0) ties.reserve(size_hint_bytes / 12 + 1);
  size_t tie_reallocs = 0;
  size_t declared_nodes = 0;
  bool has_declared = false;
  NodeId max_id = 0;

  std::string line;
  size_t line_number = 0;
  TieLine parsed;
  while (std::getline(in, line)) {
    ++line_number;
    DD_RETURN_NOT_OK(ParseTieLine(line, line_number, &parsed));
    if (parsed.kind == TieLine::Kind::kNodes) {
      declared_nodes = parsed.nodes;
      has_declared = true;
    }
    if (parsed.kind != TieLine::Kind::kTie) continue;
    max_id = std::max({max_id, parsed.u, parsed.v});
    if (ties.size() == ties.capacity()) ++tie_reallocs;
    ties.push_back({parsed.u, parsed.v, parsed.type});
  }

  const size_t num_nodes =
      has_declared ? declared_nodes
                   : (ties.empty() ? 0 : static_cast<size_t>(max_id) + 1);
  if (has_declared && !ties.empty() && max_id >= num_nodes) {
    return util::Status::InvalidArgument(
        "tie references node " + std::to_string(max_id) +
        " beyond declared node count " + std::to_string(num_nodes));
  }

  GraphBuilder builder(num_nodes);
  builder.SetNumThreads(num_threads);
  for (const ParsedTie& t : ties) {
    DD_RETURN_NOT_OK(builder.AddTie(t.u, t.v, t.type));
  }
  if (obs::Enabled()) {
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("graph.load.ties")->Add(ties.size());
    registry.GetCounter("graph.load.lines")->Add(line_number);
    registry.GetCounter("graph.load.tie_reallocs")->Add(tie_reallocs);
    registry.GetGauge("graph.load.nodes")
        ->Set(static_cast<double>(num_nodes));
  }
  // The grammar accepts node counts up to 2^32 - 1, and Build() sizes its
  // per-node arrays by the count, not by the ties.
  try {
    return std::move(builder).Build();
  } catch (const std::bad_alloc&) {
    return util::Status::ResourceExhausted(
        "cannot allocate the per-node arrays of " +
        std::to_string(num_nodes) + " nodes");
  }
}

}  // namespace deepdirect::graph
