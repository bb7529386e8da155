#include "util/alias_table.h"

#include <limits>

#include "util/check.h"

namespace deepdirect::util {

AliasTable::AliasTable(const std::vector<double>& weights) {
  const size_t n = weights.size();
  DD_CHECK_GT(n, 0u);
  DD_CHECK_LE(n, static_cast<size_t>(std::numeric_limits<uint32_t>::max()));

  double total = 0.0;
  for (double w : weights) {
    DD_CHECK_GE(w, 0.0);
    total += w;
  }
  DD_CHECK_GT(total, 0.0);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Scaled probabilities; buckets with scaled < 1 are "small".
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] / total * n;

  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are exactly 1 up to floating error.
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

size_t AliasTable::Sample(Rng& rng) const {
  const size_t bucket = rng.NextIndex(prob_.size());
  return rng.NextDouble() < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace deepdirect::util
