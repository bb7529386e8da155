// Edge-list serialization for mixed social networks.
//
// Text format, one tie per line:
//     <u> <v> <type>
// where <type> is one of `d` (directed u->v), `b` (bidirectional), or
// `u` (undirected). Lines starting with `#` and blank (or whitespace-only)
// lines are ignored; CRLF line endings are accepted. Extra tokens after the
// type field are a parse error. A header line `# nodes <n>` may pin the
// node count; otherwise it is max(node id) + 1. Every node count must fit
// a NodeId: ids lie in [0, kMaxNodes) and `# nodes` is at most kMaxNodes.

#ifndef DEEPDIRECT_GRAPH_GRAPH_IO_H_
#define DEEPDIRECT_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <limits>
#include <sstream>
#include <string>

#include "graph/mixed_graph.h"
#include "util/status.h"

namespace deepdirect::graph {

/// The most nodes a network may have: a NodeId must index every one.
inline constexpr size_t kMaxNodes = std::numeric_limits<NodeId>::max();

/// One line of the edge-list format.
struct TieLine {
  enum class Kind { kSkip, kNodes, kTie };
  Kind kind = Kind::kSkip;  ///< kSkip: blank, comment or other header
  size_t nodes = 0;         ///< the `# nodes` count (kNodes)
  NodeId u = 0;             ///< the tie (kTie)
  NodeId v = 0;
  TieType type = TieType::kUndirected;
};

/// Parses one line of the edge-list format into `out`, first dropping a
/// trailing '\r' from `line`. A defect returns InvalidArgument naming
/// `line_number`. ReadEdgeList and the tie-batch parser
/// (train/incremental.h) both read their lines with it; it is inline so
/// that the train layer shares it without linking the graph library.
inline util::Status ParseTieLine(std::string& line, size_t line_number,
                                 TieLine* out) {
  const auto at = [&] { return " at line " + std::to_string(line_number); };
  *out = TieLine{};
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.find_first_not_of(" \t") == std::string::npos) {
    return util::Status::OK();
  }
  if (line[0] == '#') {
    std::istringstream header(line.substr(1));
    std::string keyword;
    if (header >> keyword && keyword == "nodes") {
      if (!(header >> out->nodes)) {
        return util::Status::InvalidArgument("malformed '# nodes' header" +
                                             at());
      }
      if (out->nodes > kMaxNodes) {
        return util::Status::InvalidArgument(
            "'# nodes' header" + at() + " declares " +
            std::to_string(out->nodes) + " nodes; a NodeId indexes at most " +
            std::to_string(kMaxNodes));
      }
      out->kind = TieLine::Kind::kNodes;
    }
    return util::Status::OK();
  }
  std::istringstream fields(line);
  long long u_raw = -1, v_raw = -1;
  std::string type_token;
  if (!(fields >> u_raw >> v_raw >> type_token) || u_raw < 0 || v_raw < 0) {
    return util::Status::InvalidArgument("malformed tie" + at() + ": '" +
                                         line + "'");
  }
  if (type_token == "d") {
    out->type = TieType::kDirected;
  } else if (type_token == "b") {
    out->type = TieType::kBidirectional;
  } else if (type_token == "u") {
    out->type = TieType::kUndirected;
  } else {
    return util::Status::InvalidArgument("unknown tie type '" + type_token +
                                         "'" + at());
  }
  // Anything after the type field means the line was not what we parsed
  // it as — fail loudly rather than train on misread data.
  std::string extra;
  if (fields >> extra) {
    return util::Status::InvalidArgument("trailing data '" + extra +
                                         "' after tie" + at() + ": '" +
                                         line + "'");
  }
  for (const long long id : {u_raw, v_raw}) {
    if (static_cast<unsigned long long>(id) >= kMaxNodes) {
      return util::Status::InvalidArgument(
          "node id " + std::to_string(id) + at() + " is not below " +
          std::to_string(kMaxNodes) + ": '" + line + "'");
    }
  }
  out->kind = TieLine::Kind::kTie;
  out->u = static_cast<NodeId>(u_raw);
  out->v = static_cast<NodeId>(v_raw);
  return util::Status::OK();
}

/// Writes the network in the edge-list format to `path`.
util::Status SaveEdgeList(const MixedSocialNetwork& g, const std::string& path);

/// Writes the network in the edge-list format to a stream.
void WriteEdgeList(const MixedSocialNetwork& g, std::ostream& out);

/// Loads a network from an edge-list file. `num_threads` drives the
/// builder's parallel index assembly (0 = all cores); the result is
/// bit-identical for every thread count. The parse buffer is reserved from
/// the file size, so multi-gigabyte edge lists load without repeated
/// doubling reallocations of a hundreds-of-MB tie vector.
util::Result<MixedSocialNetwork> LoadEdgeList(const std::string& path,
                                              size_t num_threads = 1);

/// Parses a network from a stream holding the edge-list format.
/// `size_hint_bytes`, when non-zero, is the byte length of the underlying
/// input (LoadEdgeList passes the file size); the tie buffer reserves
/// hint/12 entries — a deliberate *under*-estimate of the tie count (the
/// shortest legal line is 6 bytes, a typical one well over 12), so at most
/// one doubling ever happens and small files never over-allocate. The obs
/// counter "graph.load.tie_reallocs" records the buffer growths that
/// happened anyway. A node count (declared or implied by the largest id)
/// whose per-node arrays cannot be allocated returns ResourceExhausted.
util::Result<MixedSocialNetwork> ReadEdgeList(std::istream& in,
                                              size_t num_threads = 1,
                                              size_t size_hint_bytes = 0);

}  // namespace deepdirect::graph

#endif  // DEEPDIRECT_GRAPH_GRAPH_IO_H_
