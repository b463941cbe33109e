#include "bootstrap/error_estimate.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace iolap {

std::string ErrorEstimate::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g ± %.3g (95%% CI [%.6g, %.6g])", value,
                2 * stddev, ci_lo, ci_hi);
  return buf;
}

ErrorEstimate EstimateError(double value, const std::vector<double>& trials) {
  ErrorEstimate est;
  est.value = value;
  est.ci_lo = value;
  est.ci_hi = value;
  if (trials.size() < 2) return est;

  double sum = 0.0;
  for (double t : trials) sum += t;
  const double mean = sum / trials.size();
  double ss = 0.0;
  for (double t : trials) ss += (t - mean) * (t - mean);
  est.stddev = std::sqrt(ss / (trials.size() - 1));
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;

  // Percentile CI, interpolated between order statistics lo and lo + 1: a
  // selection puts the lo-th in place with everything larger after it, so
  // the next one is the minimum of that tail. No full sort is needed.
  std::vector<double> order = trials;
  auto percentile = [&order](double p) {
    const double pos = p * (order.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - lo;
    const auto at = order.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(order.begin(), at, order.end());
    const double next = lo + 1 < order.size()
                            ? *std::min_element(at + 1, order.end())
                            : *at;
    return *at * (1.0 - frac) + next * frac;
  };
  est.ci_lo = percentile(0.025);
  est.ci_hi = percentile(0.975);
  return est;
}

ErrorEstimate EstimateFromStddev(double value, double stddev) {
  ErrorEstimate est;
  est.value = value;
  est.stddev = stddev < 0.0 ? 0.0 : stddev;
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;
  est.ci_lo = value - 1.96 * est.stddev;
  est.ci_hi = value + 1.96 * est.stddev;
  return est;
}

}  // namespace iolap
