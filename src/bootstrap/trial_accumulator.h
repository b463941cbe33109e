#ifndef IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
#define IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_

#include <memory>
#include <vector>

#include "core/function_registry.h"
#include "core/value.h"

namespace iolap {

/// The sketch state of one aggregate over one group, replicated across
/// bootstrap trials: one main accumulator (plain multiplicities) plus
/// `num_trials` trial accumulators (Poisson multiplicities). This is the
/// runtime form of the paper's "all uncertain attributes are duplicated to
/// multiple instances, one per bootstrap trial" (§7/Appendix C), compressed
/// into sub-linear sketches per §4.2.
class TrialAccumulatorSet {
 public:
  TrialAccumulatorSet(const AggregateFunction& fn, int num_trials);

  int num_trials() const { return static_cast<int>(trials_.size()); }

  /// The per-tuple fold, in two halves: the main accumulator takes the
  /// value with its plain multiplicity `weight`, and trial t takes its
  /// trial-t value with the trial-t multiplicity (a zero weight is
  /// skipped). The delta engine folds main values in the serial apply
  /// phase and trial values in the deferred trial flush; a row whose filter
  /// decision differs per bootstrap trial (§5) reaches only the trials that
  /// keep it.
  void AddMainOnly(const Value& v, double weight);
  void AddTrialOnly(int trial, const Value& v, double weight);

  void Merge(const TrialAccumulatorSet& other);

  Value MainResult(double scale) const;
  /// Numeric trial replicas (NULL trials surface as the main value, so a
  /// group that is empty in some resample does not poison the envelope).
  std::vector<double> TrialResults(double scale) const;

  TrialAccumulatorSet Clone() const;
  size_t ByteSize() const;

  /// Input moments of the main contributions (weighted count, mean,
  /// variance), maintained alongside the accumulators for the closed-form
  /// (analytic) error estimator — the paper's §9 pointer to analytical
  /// bootstrap [39] as a drop-in replacement for simulation.
  double moment_count() const { return m_n_; }
  double moment_mean() const { return m_n_ > 0 ? m_sum_ / m_n_ : 0.0; }
  double moment_variance() const;

 private:
  TrialAccumulatorSet() = default;

  void AddMoments(const Value& v, double weight);

  std::unique_ptr<AggAccumulator> main_;
  std::vector<std::unique_ptr<AggAccumulator>> trials_;
  double m_n_ = 0.0;
  double m_sum_ = 0.0;
  double m_sumsq_ = 0.0;
};

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
