#include "ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace deepdirect::ml {

double Accuracy(const std::vector<double>& scores,
                const std::vector<int>& labels) {
  DD_CHECK_EQ(scores.size(), labels.size());
  if (scores.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const int predicted = scores[i] >= 0.5 ? 1 : 0;
    if (predicted == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(scores.size());
}

double AreaUnderRoc(const std::vector<double>& scores,
                    const std::vector<int>& labels) {
  DD_CHECK_EQ(scores.size(), labels.size());
  const size_t n = scores.size();
  size_t positives = 0;
  for (int y : labels) {
    DD_CHECK(y == 0 || y == 1);
    positives += static_cast<size_t>(y);
  }
  const size_t negatives = n - positives;
  if (positives == 0 || negatives == 0) return 0.5;

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] < scores[b];
  });

  // Midranks over tied scores.
  double positive_rank_sum = 0.0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * static_cast<double>(i + 1 + j);  // 1-based
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] == 1) positive_rank_sum += midrank;
    }
    i = j;
  }
  const double p = static_cast<double>(positives);
  const double auc =
      (positive_rank_sum - p * (p + 1.0) / 2.0) /
      (p * static_cast<double>(negatives));
  return auc;
}

}  // namespace deepdirect::ml
