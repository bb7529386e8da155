// Evaluation metrics: accuracy for direction discovery (Sec. 6.2) and AUC
// for the link-prediction experiment (Sec. 6.3).

#ifndef DEEPDIRECT_ML_METRICS_H_
#define DEEPDIRECT_ML_METRICS_H_

#include <cstddef>
#include <vector>

namespace deepdirect::ml {

/// Fraction of predictions matching binary labels (threshold 0.5).
double Accuracy(const std::vector<double>& scores,
                const std::vector<int>& labels);

/// Area under the ROC curve via the rank statistic
/// AUC = (Σ ranks of positives − P(P+1)/2) / (P·N), with midrank handling
/// of tied scores. Returns 0.5 when either class is empty.
double AreaUnderRoc(const std::vector<double>& scores,
                    const std::vector<int>& labels);

}  // namespace deepdirect::ml

#endif  // DEEPDIRECT_ML_METRICS_H_
