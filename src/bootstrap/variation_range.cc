#include "bootstrap/variation_range.h"

#include <algorithm>
#include <cmath>

namespace iolap {

Envelope ReplicaEnvelope(double value, const double* trials, size_t n) {
  Envelope env{value, value, 0.0};
  double sum = 0.0;
  for (size_t t = 0; t < n; ++t) {
    env.lo = std::min(env.lo, trials[t]);
    env.hi = std::max(env.hi, trials[t]);
    sum += trials[t];
  }
  if (n > 1) {
    const double mean = sum / static_cast<double>(n);
    double ss = 0.0;
    for (size_t t = 0; t < n; ++t) {
      ss += (trials[t] - mean) * (trials[t] - mean);
    }
    env.stddev = std::sqrt(ss / static_cast<double>(n - 1));
  }
  return env;
}

VariationRangeTracker::UpdateResult VariationRangeTracker::Update(
    double value, const std::vector<double>& trials) {
  const Envelope env = ReplicaEnvelope(value, trials.data(), trials.size());
  return UpdateEnvelope(value, env.lo, env.hi, env.stddev);
}

VariationRangeTracker::UpdateResult VariationRangeTracker::UpdateEnvelope(
    double value, double lo, double hi, double stddev) {
  const Envelope env{std::min(lo, value), std::max(hi, value), stddev};
  const Interval padded(env.lo - slack_ * env.stddev,
                        env.hi + slack_ * env.stddev);
  UpdateResult result;
  if (env.lo < lower_ || env.hi > upper_) {
    // A constrained bound is violated: some pruning decision that consulted
    // this value no longer holds. Report the last update whose constraints
    // the new envelope still satisfies (constraints only tighten over
    // time, so walking back only loosens them).
    result.ok = false;
    result.last_consistent_batch = -1;
    for (int b = static_cast<int>(history_.size()) - 1; b >= 0; --b) {
      if (env.lo >= history_[b].lower && env.hi <= history_[b].upper) {
        result.last_consistent_batch = b;
        break;
      }
    }
    return result;
  }
  if (frozen_updates_ > 0) --frozen_updates_;
  history_.push_back(Snapshot{padded, lower_, upper_});
  return result;
}

void VariationRangeTracker::ConstrainUpper(double bound) {
  upper_ = std::min(upper_, bound);
  if (!history_.empty()) {
    history_.back().upper = std::min(history_.back().upper, upper_);
  }
}

void VariationRangeTracker::ConstrainLower(double bound) {
  lower_ = std::max(lower_, bound);
  if (!history_.empty()) {
    history_.back().lower = std::max(history_.back().lower, lower_);
  }
}

VariationRangeTracker::UpdateResult VariationRangeTracker::InjectInconsistency()
    const {
  UpdateResult result;
  const bool upper_finite = std::isfinite(upper_);
  const bool lower_finite = std::isfinite(lower_);
  // No obligations, no possible violation — same as the real check.
  if (!upper_finite && !lower_finite) return result;
  // A point envelope just past the tighter side, so the walk-back lands on
  // the last update whose constraints were still loose enough to admit it.
  double probe;
  if (upper_finite) {
    probe = upper_ + std::max(1.0, std::fabs(upper_)) * 1e-9;
  } else {
    probe = lower_ - std::max(1.0, std::fabs(lower_)) * 1e-9;
  }
  result.ok = false;
  result.last_consistent_batch = -1;
  for (int b = static_cast<int>(history_.size()) - 1; b >= 0; --b) {
    if (probe >= history_[b].lower && probe <= history_[b].upper) {
      result.last_consistent_batch = b;
      break;
    }
  }
  return result;
}

Interval VariationRangeTracker::current() const {
  if (history_.empty()) return Interval::Unbounded();
  if (frozen_updates_ > 0) {
    // Replay window: expose only the recovered constraints, so the
    // decisions that caused the failure are not deterministically re-made.
    return Interval(lower_, upper_);
  }
  const Snapshot& last = history_.back();
  return Interval(std::max(last.padded.lo, lower_),
                  std::min(last.padded.hi, upper_));
}

void VariationRangeTracker::RecoverTo(int batch, int freeze_updates) {
  if (batch < 0) {
    history_.clear();
    lower_ = -std::numeric_limits<double>::infinity();
    upper_ = std::numeric_limits<double>::infinity();
  } else {
    if (static_cast<size_t>(batch) + 1 < history_.size()) {
      history_.resize(batch + 1);
    }
    if (!history_.empty()) {
      lower_ = history_.back().lower;
      upper_ = history_.back().upper;
    }
  }
  frozen_updates_ = freeze_updates < 0 ? 0 : freeze_updates;
}

}  // namespace iolap
