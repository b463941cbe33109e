#ifndef IOLAP_BOOTSTRAP_VARIATION_RANGE_H_
#define IOLAP_BOOTSTRAP_VARIATION_RANGE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "core/interval.h"

namespace iolap {

/// The envelope of one batch's bootstrap replicas: [lo, hi] spans the
/// replicas and the running value (so the value can never silently escape
/// it), and `stddev` is the replicas' sample standard deviation (0 with
/// fewer than two).
struct Envelope {
  double lo;
  double hi;
  double stddev;
};

/// The envelope of `value` and its replicas `trials[0, n)`. The registry's
/// publication stores it for every bootstrap value, so it is the one
/// definition every later range and verdict reads.
Envelope ReplicaEnvelope(double value, const double* trials, size_t n);

/// Tracks the variation range R(u) of one uncertain aggregate value across
/// mini-batches (§5.1), refined with *decision constraints*.
///
/// Each batch folds the bootstrap replicas û into a slack-padded envelope
///   padded_i = [min(û) − ε·σ(û), max(û) + ε·σ(û)].
///
/// The paper maintains R as the running intersection of these envelopes
/// and recovers whenever a new envelope escapes R. This implementation
/// keeps the statistical envelope and the *obligations* separate:
///
///  - the classification range (current()) is padded_i ∩ [lower, upper]
///    where [lower, upper] are the accumulated decision constraints;
///  - a pruning decision made against the range registers only the bounds
///    it actually needs (ConstrainUpper / ConstrainLower): pruning
///    `v > c` to false needs v to stay below a separator, not the whole
///    range to hold;
///  - the integrity check (Update) verifies new envelopes against the
///    constraints. A value nobody decided on carries no constraints and
///    can never fail.
///
/// This is strictly less conservative than §5.1's full-range containment
/// (which it degenerates to if both bounds are registered per decision)
/// with the same correctness argument: every pruned tuple's decision
/// remains valid as long as every constrained value honours its bounds,
/// and violations roll the engine back to the last batch whose constraints
/// the new envelope satisfies (Theorem 1's recovery).
class VariationRangeTracker {
 public:
  explicit VariationRangeTracker(double slack) : slack_(slack) {}

  struct UpdateResult {
    /// The new envelope honours all constraints.
    bool ok = true;
    /// On failure: the last update index whose constraints the new padded
    /// envelope satisfies (-1 = none; recover from scratch).
    int last_consistent_batch = -1;
  };

  /// Folds the batch's replicas (`trials` + the running `value`): their
  /// ReplicaEnvelope through UpdateEnvelope.
  UpdateResult Update(double value, const std::vector<double>& trials);

  /// Same, from a precomputed envelope (min/max/stddev of the replicas) —
  /// used when an untouched group's stored envelope is re-scaled instead
  /// of re-materializing its replicas.
  UpdateResult UpdateEnvelope(double value, double lo, double hi,
                              double stddev);

  /// Registers a decision obligation: future values (and replicas) must
  /// stay ≤ `bound` / ≥ `bound`.
  void ConstrainUpper(double bound);
  void ConstrainLower(double bound);

  /// Fault injection (registry-envelope-fault): reports the failure a
  /// replica envelope *just* escaping the tightest registered constraint
  /// would produce, with the same constraint-history walk-back as a real
  /// escape — so recovery, including the frozen replay window, runs its
  /// natural path. State is untouched (a failing Update never folds its
  /// envelope). Returns ok when the tracker carries no finite constraint:
  /// such a value can never fail, injected or not.
  UpdateResult InjectInconsistency() const;

  /// Recovery-storm degradation, staircase level 1: scales the envelope
  /// slack ε so future padded envelopes widen. Wider classification ranges
  /// decide fewer tuples, which registers fewer obligations — trading
  /// pruning for recovery pressure (see docs/INTERNALS.md §9).
  void ScaleSlack(double factor) { slack_ *= factor; }

  /// The range classification consults: the latest padded envelope
  /// intersected with the constraints. Unbounded before the first update,
  /// and frozen to the recovery point's constraints during a replay window.
  Interval current() const;

  int num_batches() const { return static_cast<int>(history_.size()); }

  /// Rollback for failure recovery: keeps updates 0..batch, restores their
  /// constraints, and freezes classification to the (loose) recovered
  /// constraints for `freeze_updates` replayed batches. Without the
  /// freeze a deterministic replay would re-make the exact decisions that
  /// created the violated constraint and loop forever; under the frozen
  /// (recovered) range those decisions are not re-made until the replay
  /// has passed the failure point.
  void RecoverTo(int batch, int freeze_updates);

  size_t ByteSize() const {
    return sizeof(*this) + history_.size() * sizeof(Snapshot);
  }

 private:
  struct Snapshot {
    Interval padded;
    double lower;
    double upper;
  };

  double lower_ = -std::numeric_limits<double>::infinity();
  double upper_ = std::numeric_limits<double>::infinity();
  double slack_;
  int frozen_updates_ = 0;
  std::vector<Snapshot> history_;
};

}  // namespace iolap

#endif  // IOLAP_BOOTSTRAP_VARIATION_RANGE_H_
