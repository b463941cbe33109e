#ifndef IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
#define IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bootstrap/poisson_multiplicities.h"
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

  /// The per-tuple fold, in two halves: the main accumulator takes the
  /// value with its plain multiplicity `weight`, and trial t takes its
  /// trial-t value with the trial-t multiplicity (a zero weight and a NULL
  /// value are skipped). The delta engine folds main values in the serial
  /// apply phase and trial values in the deferred trial flush; a row whose
  /// filter decision differs per bootstrap trial (§5) reaches only the
  /// trials that keep it.
  void AddMainOnly(const Value& v, double weight);
  void AddTrialOnly(int trial, const Value& v, double weight);

  /// Folds one non-NULL argument (`x` its AsDouble(), `type` its type) into
  /// every trial listed in `weights`, whose weights are nonzero: the
  /// definition's fold inlined into one loop.
  void FoldTrials(const TrialWeight* weights, size_t n, double x,
                  ValueType type) {
    state_->fold_trials(trials_.data(), weights, n, x, type);
  }

  void Merge(const TrialAccumulatorSet& other);

  Value MainResult(double scale) const;
  /// Numeric trial replicas (NULL trials surface as the main value, so a
  /// group that is empty in some resample does not poison the envelope).
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

/// The deferred trial fold of certain rows: rows whose every trial takes
/// the main argument values, weighted by the row's bootstrap multiplicity.
/// A row is recorded once, with its unboxed non-NULL arguments; FoldTrials
/// then folds the recorded rows into a range of trials.
class DeferredTrialFolds {
 public:
  /// Starts a row whose aggregates fold into `accs[0..]` (one set per
  /// aggregate of its group), with plain multiplicity `weight`. A row of
  /// the streamed relation (`from_stream`) is reweighted per trial by its
  /// Poisson multiplicity; any other row weighs `weight` in every trial.
  void AddRow(TrialAccumulatorSet* accs, uint64_t uid, double weight,
              bool from_stream);
  /// Records aggregate `agg`'s argument of the last row; NULL is dropped.
  void AddArg(uint32_t agg, const Value& v);

  bool empty() const { return rows_.empty(); }
  void Clear();

  /// Folds every recorded row, in record order, into trials [begin, end)
  /// of its accumulators. Each row's weights over the range are computed
  /// once and shared by its aggregates; zero weights never fold (0 × inf is
  /// NaN). Calls over disjoint trial ranges touch disjoint state, so they
  /// may run concurrently.
  void FoldTrials(const BootstrapWeights& bootstrap, int begin,
                  int end) const;

 private:
  struct Row {
    TrialAccumulatorSet* accs;
    uint64_t uid;
    double weight;
    bool from_stream;
    /// One past this row's last entry in args_.
    uint32_t args_end;
  };
  struct Arg {
    double x;
    uint32_t agg;
    ValueType type;
  };

  std::vector<Row> rows_;
  std::vector<Arg> args_;
};

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_TRIAL_ACCUMULATOR_H_
