#ifndef IOLAP_BOOTSTRAP_ERROR_ESTIMATE_H_
#define IOLAP_BOOTSTRAP_ERROR_ESTIMATE_H_

#include <cstddef>
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

/// The order statistics a 95% band interpolates, over n >= 2 replicas each
/// multiplied by a scale: ranks floor(0.025 (n - 1)) and the next one
/// (`lo`), floor(0.975 (n - 1)) and the next one (`hi`). A NaN replica has
/// no order, and makes every rank NaN. For a scale m >= 1, x -> x * m is
/// monotone and maps only ±0 to ±0, so the ranks of the scaled replicas are
/// the ranks at scale 1 times m, bit for bit: a caller may keep the ranks
/// of unscaled replicas and scale them later.
struct ReplicaRanks {
  double lo[2] = {};
  double hi[2] = {};
};
ReplicaRanks RankReplicas(const double* trials, size_t n, double scale = 1.0);

/// Builds the estimate for `value` from the `n` replicas at `trials`, each
/// multiplied by `scale` (the multiplicity scale of a scale-linear
/// aggregate, applied in the pass instead of on a copy). With fewer than two
/// replicas the estimate degenerates to a zero-width band around `value`. A
/// NaN replica makes the stddev and both CI bounds NaN.
ErrorEstimate EstimateError(double value, const double* trials, size_t n,
                            double scale = 1.0);
inline ErrorEstimate EstimateError(double value,
                                   const std::vector<double>& trials,
                                   double scale = 1.0) {
  return EstimateError(value, trials.data(), trials.size(), scale);
}
/// The same, with the ranks taken already: `ranks` must be
/// RankReplicas(trials, n, scale). Only the two stddev passes run.
ErrorEstimate EstimateError(double value, const double* trials, size_t n,
                            double scale, const ReplicaRanks& ranks);

/// Builds a presentation estimate from a scaled stddev (normal CI). A
/// negative stddev (an aggregate without a closed form) gives a zero-width
/// band around `value`.
ErrorEstimate EstimateFromStddev(double value, double stddev);

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_ERROR_ESTIMATE_H_
