#ifndef IOLAP_BOOTSTRAP_ERROR_ESTIMATE_H_
#define IOLAP_BOOTSTRAP_ERROR_ESTIMATE_H_

#include <string>
#include <vector>

namespace iolap {

/// Error estimate of one approximate aggregate value, computed from the
/// empirical distribution of its bootstrap trial replicas (§2, "Error
/// Estimation"). `rel_stddev` is the relative standard deviation the paper
/// plots in Figure 7(a); the confidence interval is the 2.5/97.5 percentile
/// band of the replicas.
struct ErrorEstimate {
  double value = 0.0;
  double stddev = 0.0;
  double rel_stddev = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;

  std::string ToString() const;
};

/// Builds the estimate for `value` from the replicas `trials`, each
/// multiplied by `scale` (the multiplicity scale of a scale-linear
/// aggregate, applied in the pass instead of on a copy). With fewer than two
/// replicas the estimate degenerates to a zero-width band around `value`. A
/// NaN replica makes the stddev and both CI bounds NaN.
ErrorEstimate EstimateError(double value, const std::vector<double>& trials,
                            double scale = 1.0);

/// Builds a presentation estimate from a scaled stddev (normal CI). A
/// negative stddev (an aggregate without a closed form) gives a zero-width
/// band around `value`.
ErrorEstimate EstimateFromStddev(double value, double stddev);

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_ERROR_ESTIMATE_H_
