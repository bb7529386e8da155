#include "serve/server.h"

#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace deepdirect::serve {

namespace {

/// The whitespace operator>> skips in the C locale: space, then \t, \n,
/// \v, \f and \r, which are the contiguous codes 9-13.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Cuts the next token off the front of `rest`, skipping whitespace before
/// it. An empty result means the line has no more tokens.
std::string_view NextToken(std::string_view& rest) {
  size_t begin = 0;
  while (begin < rest.size() && IsSpace(rest[begin])) ++begin;
  size_t end = begin;
  while (end < rest.size() && !IsSpace(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Strict non-negative base-10 parse that fits a NodeId.
std::optional<graph::NodeId> ParseNodeId(std::string_view token) {
  if (token.empty() || token.size() > 10) return std::nullopt;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > 0xffffffffULL) return std::nullopt;
  return static_cast<graph::NodeId>(value);
}

__extension__ typedef unsigned __int128 Uint128;

constexpr uint64_t kOneBits = std::bit_cast<uint64_t>(1.0);
/// Below 2^-30 a value rounds to 0.000000, and from it up to 1 the shift
/// of RenderUnit stays within [52, 82].
constexpr uint64_t kTinyBits = std::bit_cast<uint64_t>(0x1.0p-30);
constexpr uint64_t kFractionBits = (uint64_t{1} << 52) - 1;
constexpr uint64_t kMillion = 1000000;

/// "00" through "99", two characters each.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// printf("%.6f") of the double with bit pattern `bits`, which must lie in
/// [+0, 1]. The value is m·2^-s exactly, with m its 53-bit significand and
/// s = 1075 − its biased exponent; p = m·10^6 < 2^73 is exact in 128 bits,
/// and p / 2^s rounded half to even is the millionths printf prints (it
/// rounds the exact binary value in the default rounding mode).
char* RenderUnit(uint64_t bits, char* out) {
  uint64_t millionths = 0;
  if (bits >= kTinyBits) {
    const unsigned shift = 1075 - static_cast<unsigned>(bits >> 52);
    const Uint128 scaled =
        static_cast<Uint128>((bits & kFractionBits) | (kFractionBits + 1)) *
        kMillion;
    millionths = static_cast<uint64_t>(scaled >> shift);
    const Uint128 rest = scaled - (static_cast<Uint128>(millionths) << shift);
    const Uint128 half = static_cast<Uint128>(1) << (shift - 1);
    // No branch on the remainder, which is as good as random.
    millionths += static_cast<uint64_t>(rest > half) |
                  (static_cast<uint64_t>(rest == half) & millionths & 1);
  }
  const bool one = millionths == kMillion;
  if (one) millionths = 0;
  out[0] = one ? '1' : '0';
  out[1] = '.';
  std::memcpy(out + 2, &kDigitPairs[2 * (millionths / 10000)], 2);
  std::memcpy(out + 4, &kDigitPairs[2 * (millionths / 100 % 100)], 2);
  std::memcpy(out + 6, &kDigitPairs[2 * (millionths % 100)], 2);
  return out + 8;
}

}  // namespace

char* RenderValue(double value, char* out) {
  // Non-negative doubles order as their bit patterns; a set sign bit, NaN
  // and +inf all compare above 1.0's.
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  if (bits <= kOneBits) return RenderUnit(bits, out);
  if (std::isnan(value)) {
    out[0] = 'N';
    out[1] = 'A';
    return out + 2;
  }
  return std::to_chars(out, out + kMaxValueChars, value,
                       std::chars_format::fixed, 6)
      .ptr;
}

ServeLoopStats RunServeLoop(const ServableModel& model, std::istream& in,
                            std::ostream& out) {
  using Clock = std::chrono::steady_clock;
  obs::Histogram* query_seconds =
      obs::Registry::Default().GetHistogram("serve.query.seconds");

  ServeLoopStats stats;
  // Reused across lines; each only grows, to the largest request seen.
  std::string line;
  std::vector<TiePair> ties;
  std::vector<double> values;
  std::vector<char> response;
  while (std::getline(in, line)) {
    std::string_view rest = line;
    std::string_view token = NextToken(rest);
    if (token.empty()) continue;  // blank or whitespace-only line
    ++stats.lines;

    // "quit" and "stats" count only as the first token; the rest of the
    // line is ignored.
    if (token == "quit") break;
    if (token == "stats") {
      const TieCacheStats cache = model.CacheStats();
      out << "stats hits=" << cache.hits << " misses=" << cache.misses
          << " evictions=" << cache.evictions
          << " capacity=" << cache.capacity << '\n';
      out.flush();
      continue;
    }

    ties.clear();
    graph::NodeId pending = 0;
    bool have_pending = false;
    for (; !token.empty(); token = NextToken(rest)) {
      const auto id = ParseNodeId(token);
      if (!id.has_value()) break;
      if (have_pending) {
        ties.push_back({pending, *id});
      } else {
        pending = *id;
      }
      have_pending = !have_pending;
    }
    if (!token.empty()) {  // stopped at a token that is not a node id
      ++stats.errors;
      out << "ERR parse: token '" << token
          << "' is not a node id (expected pairs of node ids, 'stats', or "
             "'quit')\n";
      out.flush();
      continue;
    }
    if (have_pending) {
      ++stats.errors;
      out << "ERR parse: odd token count (queries are u v pairs)\n";
      out.flush();
      continue;
    }

    values.resize(ties.size());
    // Decided once per request, so with telemetry off no clock is read.
    const bool timed = obs::Enabled();
    Clock::time_point start;
    if (timed) start = Clock::now();
    // kNan cannot fail for span-matched inputs; unknown pairs become NA.
    model.QueryBatch(ties, values, MissingPolicy::kNan);
    if (timed) {
      // One observation per request line, of the mean per-query latency,
      // keeps histogram cost independent of batch size.
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      query_seconds->Observe(elapsed / static_cast<double>(ties.size()));
    }
    stats.queries += ties.size();

    const size_t bound = values.size() * (kMaxValueChars + 1);
    if (response.size() < bound) response.resize(bound);
    char* cursor = response.data();
    for (const double value : values) {
      cursor = RenderValue(value, cursor);
      *cursor++ = ' ';
    }
    cursor[-1] = '\n';  // the line has at least one pair
    out.write(response.data(), cursor - response.data());
    out.flush();
  }
  return stats;
}

}  // namespace deepdirect::serve
