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

// Numeric order with -0.0 before +0.0: a total order over non-NaN doubles
// in which equivalent values have the same bits, so a rank taken with an
// unstable selection names one bit pattern.
bool RankBefore(double x, double y) {
  return x < y || (x == y && std::signbit(x) && !std::signbit(y));
}

// Order statistics r and r + 1 of `order` under RankBefore: a selection
// puts the r-th in place with everything after it ranked no lower, so the
// next one is the least of that tail. For tails too long for the buffers.
void SelectRanks(std::vector<double>& order, size_t r, double out[2]) {
  const auto at = order.begin() + static_cast<std::ptrdiff_t>(r);
  std::nth_element(order.begin(), at, order.end(), RankBefore);
  out[0] = *at;
  out[1] = *std::min_element(at + 1, order.end(), RankBefore);
}

// The CI band's rank positions p (n - 1), p = 0.025 and 0.975.
double PosLo(size_t n) { return 0.025 * (n - 1); }
double PosHi(size_t n) { return 0.975 * (n - 1); }

}  // namespace

std::string ErrorEstimate::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g ± %.3g (95%% CI [%.6g, %.6g])", value,
                2 * stddev, ci_lo, ci_hi);
  return buf;
}

ReplicaRanks RankReplicas(const double* trials, size_t n, double scale) {
  // Each CI bound interpolates between the order statistics at
  // floor(pos) and floor(pos) + 1 <= n - 1. The low tail keeps the lo + 2
  // smallest replicas, the high tail the n - hi largest. Ties stay in
  // replica order in both, and scaling by m >= 1 keeps every tie of
  // signed zeros a tie of the same replicas.
  const size_t lo = static_cast<size_t>(PosLo(n));
  const size_t hi = static_cast<size_t>(PosHi(n));
  ReplicaRanks ranks;
  bool nan = false;
  if (lo + 2 <= kTailCapacity && n - hi <= kTailCapacity) {
    Tail<std::less<double>> low(lo + 2);
    Tail<std::greater<double>> high(n - hi);
    for (size_t i = 0; i < n; ++i) {
      const double x = trials[i] * scale;
      nan = nan || std::isnan(x);
      low.Insert(x);
      high.Insert(x);
    }
    // Rank r from the top is rank n - 1 - r from the bottom.
    ranks = {{low[lo], low[lo + 1]}, {high[n - 1 - hi], high[n - 2 - hi]}};
  } else {
    std::vector<double> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = trials[i] * scale;
      nan = nan || std::isnan(order[i]);
    }
    if (!nan) {
      SelectRanks(order, lo, ranks.lo);
      SelectRanks(order, hi, ranks.hi);
    }
  }
  if (nan) {
    const double q = std::numeric_limits<double>::quiet_NaN();
    ranks = {{q, q}, {q, q}};
  }
  return ranks;
}

ErrorEstimate EstimateError(double value, const double* trials, size_t n,
                            double scale) {
  return EstimateError(value, trials, n, scale,
                       n < 2 ? ReplicaRanks{} : RankReplicas(trials, n, scale));
}

ErrorEstimate EstimateError(double value, const double* trials, size_t n,
                            double scale, const ReplicaRanks& ranks) {
  ErrorEstimate est;
  est.value = value;
  est.ci_lo = value;
  est.ci_hi = value;
  if (n < 2) return est;

  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += trials[i] * scale;
  const double mean = sum / n;
  double ss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = trials[i] * scale - mean;
    ss += d * d;
  }
  est.stddev = std::sqrt(ss / (n - 1));
  est.rel_stddev = value != 0.0 ? est.stddev / std::fabs(value) : est.stddev;

  // NaN replicas have no order; the stddev is NaN already, and so is the
  // band.
  if (std::isnan(ranks.lo[0])) {
    est.ci_lo = std::numeric_limits<double>::quiet_NaN();
    est.ci_hi = est.ci_lo;
    return est;
  }
  const double frac_lo = PosLo(n) - static_cast<size_t>(PosLo(n));
  const double frac_hi = PosHi(n) - static_cast<size_t>(PosHi(n));
  est.ci_lo = ranks.lo[0] * (1.0 - frac_lo) + ranks.lo[1] * frac_lo;
  est.ci_hi = ranks.hi[0] * (1.0 - frac_hi) + ranks.hi[1] * frac_hi;
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
