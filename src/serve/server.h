// Line-oriented serving loop: the protocol behind `tdl_cli serve`.
//
// One request per line. Tokens are separated by runs of the whitespace
// that operator>> skips in the C locale: space, \t, \n, \v, \f and \r (so
// CRLF line endings and tab-separated requests work). A blank or
// whitespace-only line is skipped and not counted. The first token picks
// the request:
//   u1 v1 [u2 v2 ...]   query d(u, v) for each pair; the response line
//                       carries one value per pair, separated by single
//                       spaces, as RenderValue writes it, or "NA" for a
//                       pair with no tie in the network
//   stats [...]         one line of cache counters
//                       (hits= misses= evictions= capacity=)
//   quit [...]          end the loop ("quit now" quits)
// Anything else answers "ERR parse ..." and the loop continues — a
// malformed request never kills the server.
//
// Wire contract: a value is printf("%.6f") in the C locale. That is the
// rendering std::to_string gives the quantify CSV, so offline and served
// predictions diff byte for byte. Every score a model serves lies in
// [+0, 1] (ServableModel::Open checks it), and RenderValue prints those
// with exact integer arithmetic; any other double goes through
// std::to_chars(chars_format::fixed, 6), which the standard defines as the
// same printf conversion.
//
// The loop tokenizes each line in place as string_views and reuses its
// line, pair, value and response buffers, so once they have grown to the
// largest request seen it does no per-request allocation. Each response
// goes out as one write followed by one flush.
//
// With telemetry on, each request line is timed; per-query latency lands
// in the serve.query.seconds histogram (surfaced by tdl_cli --metrics-out)
// alongside the serve.queries counter and serve.batch.size histogram the
// model records. With it off, the loop reads no clock.

#ifndef DEEPDIRECT_SERVE_SERVER_H_
#define DEEPDIRECT_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>

#include "serve/servable_model.h"

namespace deepdirect::serve {

/// What a serve loop processed, for callers that report a summary.
struct ServeLoopStats {
  uint64_t lines = 0;    ///< request lines handled (excluding blank lines)
  uint64_t queries = 0;  ///< tie pairs answered (including NA)
  uint64_t errors = 0;   ///< malformed request lines
};

/// The most bytes RenderValue writes: a sign, the 309 integer digits of
/// the largest double, the point and six decimals.
inline constexpr size_t kMaxValueChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 6;

/// Writes one served value as the protocol renders it — "NA" for NaN,
/// otherwise exactly printf("%.6f") in the C locale — at `out`, which must
/// have room for kMaxValueChars bytes. Returns one past the last byte
/// written; no terminating NUL is written.
char* RenderValue(double value, char* out);

/// Reads requests from `in` until EOF or "quit", answering on `out`.
ServeLoopStats RunServeLoop(const ServableModel& model, std::istream& in,
                            std::ostream& out);

}  // namespace deepdirect::serve

#endif  // DEEPDIRECT_SERVE_SERVER_H_
