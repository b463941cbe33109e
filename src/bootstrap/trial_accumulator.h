#ifndef IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
#define IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/function_registry.h"
#include "core/value.h"

namespace iolap {

/// The sketch state of one aggregate over one group, replicated across
/// bootstrap trials: one main accumulator (plain multiplicities) plus
/// `num_trials` trial states (Poisson multiplicities) in one contiguous
/// [trial × width] array of the definition's flat state. This is the
/// runtime form of the paper's "all uncertain attributes are duplicated to
/// multiple instances, one per bootstrap trial" (§7/Appendix C), compressed
/// into sub-linear sketches per §4.2.
class TrialAccumulatorSet {
 public:
  /// `fn` must outlive the set, as a registry's definitions do.
  TrialAccumulatorSet(const AggregateFunction& fn, int num_trials);

  /// The main half of the per-tuple fold: the main accumulator takes the
  /// value with its plain multiplicity `weight`. The delta engine folds
  /// main values in the serial apply phase and the trials in the deferred
  /// trial flush (FoldRowTrials).
  void AddMainOnly(const Value& v, double weight);

  /// Folds one non-NULL argument (`x` its AsDouble(), `type` its type) into
  /// every trial listed in `weights`, whose weights are nonzero: the
  /// definition's fold inlined into one loop.
  void FoldTrials(const TrialWeight* weights, size_t n, double x,
                  ValueType type) {
    state_->fold_trials(trials_.data(), weights, n, x, type);
  }

  void Merge(const TrialAccumulatorSet& other);

  Value MainResult(double scale) const;
  /// Numeric trial replicas into out[0, num_trials) (NULL trials surface as
  /// the main value, so a group that is empty in some resample does not
  /// poison the envelope).
  void TrialResults(double scale, double* out) const;
  std::vector<double> TrialResults(double scale) const;

  TrialAccumulatorSet Clone() const;
  /// The main accumulator's bytes plus `width` doubles per trial.
  size_t ByteSize() const;

  /// Input moments of the main contributions (weighted count and
  /// variance), maintained alongside the accumulators for the closed-form
  /// (analytic) error estimator — the paper's §9 pointer to analytical
  /// bootstrap [39] as a drop-in replacement for simulation.
  double moment_count() const { return m_n_; }
  double moment_variance() const;

 private:
  TrialAccumulatorSet() = default;

  void AddMoments(const Value& v, double weight);

  const AggregateState* state_ = nullptr;
  std::unique_ptr<AggAccumulator> main_;
  std::vector<double> trials_;
  double m_n_ = 0.0;
  double m_sum_ = 0.0;
  double m_sumsq_ = 0.0;
};

/// The per-tuple trial fold: folds one row into trials [begin, end) of its
/// group's aggregates, `accs[0, num_aggs)`. `w[t]` is the row's
/// multiplicity in trial t: its plain weight, times its Poisson weight if
/// it is streamed, and 0 in a trial whose filter the row fails. The
/// nonzero weights over the range are compacted into `scratch` (room for
/// end - begin) once and shared by the aggregates, so a zero weight never
/// folds (0 × inf is NaN). Aggregate a takes `args[a]` in every trial, or,
/// when `trial_args` is not null, `trial_args[t * num_aggs + a]` in trial
/// t (an argument that reads an uncertain value differs per trial). NULL
/// arguments are skipped. Calls over disjoint trial ranges touch disjoint
/// state, so they may run concurrently.
void FoldRowTrials(TrialAccumulatorSet* accs, size_t num_aggs,
                   const Value* args, const TrialArg* trial_args,
                   const double* w, int begin, int end, TrialWeight* scratch);

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
