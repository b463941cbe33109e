#ifndef IOLAP_CORE_AGGREGATE_H_
#define IOLAP_CORE_AGGREGATE_H_

#include <memory>

#include "core/value.h"

namespace iolap {

/// Incremental state of one aggregate over one group. Accumulators are the
/// "sketch states" of the paper (§4.2): an AGGREGATE operator keeps one
/// accumulator per group (its bootstrap trials keep flat states, see
/// AggregateState) instead of the input tuples, so its state is sub-linear
/// in the data.
///
/// `weight` carries tuple multiplicity: 1 for a plainly seen tuple,
/// fractional values after multiplicity-scaling joins. NULL inputs are
/// ignored (SQL semantics).
class AggAccumulator {
 public:
  virtual ~AggAccumulator() = default;

  /// Folds one input value with multiplicity `weight`.
  virtual void Add(const Value& v, double weight) = 0;

  /// Folds another accumulator of the same dynamic type (partial-aggregate
  /// merge for parallel execution).
  virtual void Merge(const AggAccumulator& other) = 0;

  /// Current result, with tuple multiplicities scaled by `scale`
  /// (= |D| / |D_i|, the paper's m_i). Scale affects magnitude aggregates
  /// (COUNT, SUM) and cancels out of ratio aggregates (AVG, GEOMEAN, ...).
  virtual Value Result(double scale) const = 0;

  /// Deep copy, for per-batch state checkpoints (failure recovery, §5.1).
  virtual std::unique_ptr<AggAccumulator> Clone() const = 0;

  /// Approximate state footprint for the memory-utilization experiments.
  virtual size_t ByteSize() const = 0;
};

/// The typed accumulators of the built-in MIN and MAX, whose result keeps
/// the argument's type. Every other aggregate's accumulator is derived from
/// its flat state (see AggregateFunction).
std::unique_ptr<AggAccumulator> NewMinAccumulator();
std::unique_ptr<AggAccumulator> NewMaxAccumulator();

}  // namespace iolap

#endif  // IOLAP_CORE_AGGREGATE_H_
