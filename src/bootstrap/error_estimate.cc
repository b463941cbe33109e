#include "bootstrap/error_estimate.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <limits>

namespace iolap {

namespace {

// Entries one tail buffer holds. A CI bound interpolates between the order
// statistics lo and lo + 1 of its tail, so a tail of n replicas needs about
// 0.025 n + 2 entries: the buffers cover up to about 600 replicas.
constexpr size_t kTailCapacity = 16;

// The `k` values that come first under `Before` among those inserted, in
// that order: the k smallest (std::less) or the k largest (std::greater).
// Entries are inserted values, ordered by comparison only, so entry i is
// exactly the value a full sort puts at rank i.
template <typename Before>
class Tail {
 public:
  explicit Tail(size_t k) : k_(k) {}

  void Insert(double x) {
    size_t j = size_;
    if (size_ < k_) {
      ++size_;
    } else if (Before()(x, v_[k_ - 1])) {
      j = k_ - 1;
    } else {
      return;
    }
    while (j > 0 && Before()(x, v_[j - 1])) {
      v_[j] = v_[j - 1];
      --j;
    }
    v_[j] = x;
  }

  double operator[](size_t i) const { return v_[i]; }

 private:
  double v_[kTailCapacity] = {};
  size_t k_;
  size_t size_ = 0;
};

// Percentile p of the replicas, interpolated between order statistics lo
// and lo + 1: a selection puts the lo-th in place with everything larger
// after it, so the next one is the minimum of that tail. For tails too
// long for the buffers.
double SelectPercentile(std::vector<double>& order, double p) {
  const double pos = p * (order.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - lo;
  const auto at = order.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(order.begin(), at, order.end());
  const double next =
      lo + 1 < order.size() ? *std::min_element(at + 1, order.end()) : *at;
  return *at * (1.0 - frac) + next * frac;
}

}  // namespace

std::string ErrorEstimate::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g ± %.3g (95%% CI [%.6g, %.6g])", value,
                2 * stddev, ci_lo, ci_hi);
  return buf;
}

ErrorEstimate EstimateError(double value, const std::vector<double>& trials,
                            double scale) {
  ErrorEstimate est;
  est.value = value;
  est.ci_lo = value;
  est.ci_hi = value;
  const size_t n = trials.size();
  if (n < 2) return est;

  // Each CI bound interpolates between the order statistics at
  // floor(pos) and floor(pos) + 1 <= n - 1, pos = p (n - 1). The low tail
  // keeps the lo + 2 smallest replicas, the high tail the n - hi largest.
  const double pos_lo = 0.025 * (n - 1);
  const double pos_hi = 0.975 * (n - 1);
  const size_t lo = static_cast<size_t>(pos_lo);
  const size_t hi = static_cast<size_t>(pos_hi);
  const bool buffered = lo + 2 <= kTailCapacity && n - hi <= kTailCapacity;
  Tail<std::less<double>> low(lo + 2);
  Tail<std::greater<double>> high(n - hi);

  double sum = 0.0;
  bool nan = false;
  for (double t : trials) {
    const double x = t * scale;
    sum += x;
    nan = nan || std::isnan(x);
    if (buffered) {
      low.Insert(x);
      high.Insert(x);
    }
  }
  const double mean = sum / n;
  double ss = 0.0;
  for (double t : trials) {
    const double d = t * scale - mean;
    ss += d * d;
  }
  est.stddev = std::sqrt(ss / (n - 1));
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;

  // NaN replicas have no order; the stddev is NaN already, and so is the
  // band.
  if (nan) {
    est.ci_lo = std::numeric_limits<double>::quiet_NaN();
    est.ci_hi = est.ci_lo;
    return est;
  }
  if (!buffered) {
    std::vector<double> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = trials[i] * scale;
    est.ci_lo = SelectPercentile(order, 0.025);
    est.ci_hi = SelectPercentile(order, 0.975);
    return est;
  }
  // Rank r from the top is rank n - 1 - r from the bottom.
  const double frac_lo = pos_lo - lo;
  const double frac_hi = pos_hi - hi;
  est.ci_lo = low[lo] * (1.0 - frac_lo) + low[lo + 1] * frac_lo;
  est.ci_hi = high[n - 1 - hi] * (1.0 - frac_hi) + high[n - 2 - hi] * frac_hi;
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
