// Walker's alias method for O(1) sampling from a discrete distribution.
//
// DeepDirect's training loop samples ties from two non-uniform
// distributions on every iteration: P_c(e) ∝ deg_tie(e) for the source tie
// and P_n(e) ∝ deg_tie(e)^{3/4} for negative ties. The alias table makes
// each draw constant time after O(|E|) construction.

#ifndef DEEPDIRECT_UTIL_ALIAS_TABLE_H_
#define DEEPDIRECT_UTIL_ALIAS_TABLE_H_

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace deepdirect::util {

/// Immutable alias table over indices [0, n).
class AliasTable {
 public:
  /// Builds the table from non-negative weights. At least one weight must be
  /// positive; weights need not be normalized.
  explicit AliasTable(const std::vector<double>& weights);

  /// Draws one index with probability proportional to its weight.
  size_t Sample(Rng& rng) const;

  /// Number of outcomes.
  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;     // acceptance probability per bucket
  std::vector<uint32_t> alias_;  // alternative outcome per bucket
};

}  // namespace deepdirect::util

#endif  // DEEPDIRECT_UTIL_ALIAS_TABLE_H_
