#ifndef IOLAP_CORE_FUNCTION_REGISTRY_H_
#define IOLAP_CORE_FUNCTION_REGISTRY_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/aggregate.h"
#include "core/value.h"

namespace iolap {

/// An unboxed numeric value (NULL / int64 / double): the numeric register
/// of compiled expression programs (exec/expr_program) and the argument and
/// result type of numeric function bodies. Invariant: when tag == kInt64,
/// `f64 == double(i64)`, so AsDouble() is a plain load.
struct NumericValue {
  double f64 = 0.0;
  int64_t i64 = 0;
  ValueType tag = ValueType::kNull;  // kNull, kInt64 or kDouble only

  static NumericValue Null() { return {}; }
  static NumericValue Int(int64_t v) {
    return {static_cast<double>(v), v, ValueType::kInt64};
  }
  static NumericValue Dbl(double v) { return {v, 0, ValueType::kDouble}; }
  static NumericValue Bool(bool v) { return Int(v ? 1 : 0); }
  /// Unboxes `v`. A string reads as 0.0, like Value::AsDouble().
  static NumericValue Of(const Value& v) {
    switch (v.type()) {
      case ValueType::kInt64:
        return Int(v.int64());
      case ValueType::kDouble:
        return Dbl(v.dbl());
      case ValueType::kString:
        return Dbl(0.0);
      default:
        return Null();
    }
  }

  /// Boxes back into a Value; Of(x.ToValue()) is x, bit for bit.
  Value ToValue() const {
    if (tag == ValueType::kInt64) return Value::Int64(i64);
    return tag == ValueType::kDouble ? Value::Double(f64) : Value::Null();
  }

  bool is_null() const { return tag == ValueType::kNull; }
  /// Mirrors Value::AsDouble(): NULL coerces to 0.0.
  double AsDouble() const { return tag == ValueType::kNull ? 0.0 : f64; }
  /// Mirrors Value::IsTruthy(): non-zero numeric.
  bool IsTruthy() const {
    return tag == ValueType::kInt64 ? i64 != 0
                                    : tag == ValueType::kDouble && f64 != 0.0;
  }
  /// Value::Compare() over non-NULL numerics: exactly, by CompareNumbers.
  int Compare(const NumericValue& other) const {
    return CompareNumbers(tag == ValueType::kInt64, i64, f64,
                          other.tag == ValueType::kInt64, other.i64,
                          other.f64);
  }
};

/// SQL `%` and mod(): both operands truncate toward zero to int64 and the
/// result takes the dividend's sign. NULL when either operand is NULL, NaN,
/// ±inf or outside the int64 range, or when the divisor truncates to 0. A
/// divisor of -1 yields 0 (INT64_MIN % -1 would overflow). The interpreter,
/// the compiled `mod` opcode and the mod() built-in all call this.
NumericValue NumericMod(const NumericValue& a, const NumericValue& b);

/// `d` truncated toward zero to int64, or NULL when it is NaN, ±inf or
/// outside the int64 range: [-2^63, 2^63) is exactly the doubles whose
/// truncation fits. Statically-int64 `+`, `-` and `*` run in double and
/// narrow through this, in the interpreter and the compiled `arith` opcode
/// alike; NumericMod narrows its operands through it.
inline NumericValue TruncateToInt64(double d) {
  return d >= -0x1p63 && d < 0x1p63 ? NumericValue::Int(static_cast<int64_t>(d))
                                    : NumericValue::Null();
}

/// Unary minus: NULL for NULL and for INT64_MIN, whose negation is not an
/// int64. The interpreter and the compiled `neg` opcode call this.
inline NumericValue NumericNeg(const NumericValue& v) {
  if (v.tag == ValueType::kInt64) {
    return v.i64 == std::numeric_limits<int64_t>::min()
               ? NumericValue::Null()
               : NumericValue::Int(-v.i64);
  }
  return v.is_null() ? v : NumericValue::Dbl(-v.f64);
}

/// What a function parameter accepts. A NULL-typed argument (the
/// literal NULL, or a call whose result type follows one) fits every kind.
enum class ParamKind : uint8_t {
  kNumeric,  // int64 or double
  kString,
  kAny,
};

/// The typed signature of a scalar or aggregate function: the one rule table
/// that the binder (arity, argument kinds, result type), the expression
/// compiler (which call form to emit) and the program verifier (register
/// kinds at call sites) all read.
struct Signature {
  /// The fixed leading parameters.
  std::vector<ParamKind> params = {};
  /// When set, zero or more further arguments of this kind may follow.
  std::optional<ParamKind> variadic = std::nullopt;
  /// The result type, unless `result_arg` >= 0: then the call returns one
  /// of its arguments from `result_arg` on (its result candidates) and has
  /// the static type of the first of them that is not NULL-typed (kNull
  /// when none is). ValidatePlan rejects a call whose candidates mix
  /// strings and numbers.
  ValueType result = ValueType::kNull;
  int result_arg = -1;

  bool AcceptsArity(size_t n) const {
    return variadic.has_value() ? n >= params.size() : n == params.size();
  }
  /// Whether argument `i` may have static type `type`: no string for
  /// kNumeric, only a string for kString, nothing past the admitted arity.
  bool Accepts(size_t i, ValueType type) const;
  ValueType ResultType(const std::vector<ValueType>& arg_types) const;
};

/// A scalar function (built-in or user-defined). UDFs are black boxes to
/// the uncertainty analysis: an expression calling a scalar function over an
/// uncertain operand gets the conservative Unbounded() variation range
/// unless the function declares itself monotone (in which case interval
/// endpoints map through the function).
///
/// A function has one hand-written body. A numeric function writes it over
/// NumericValue and leaves `boxed` empty; RegisterScalar derives the boxed
/// call from it. For example:
///
///   Status status = registry->RegisterScalar(
///       {.name = "double_it",
///        .signature = {.params = {ParamKind::kNumeric},
///                      .result = ValueType::kDouble},
///        .monotone = true,
///        .numeric = [](const NumericValue* args, size_t) {
///          if (args[0].is_null()) return NumericValue::Null();
///          return NumericValue::Dbl(2.0 * args[0].AsDouble());
///        }});
///
/// A function over strings sets only `boxed`. Bodies must be pure (they run
/// on several threads) and may index `args` up to what the signature admits:
/// the binder checks every call against it.
struct ScalarFunction {
  using NumericBody =
      std::function<NumericValue(const NumericValue* args, size_t n)>;
  using BoxedBody = std::function<Value(const Value* args, size_t n)>;

  /// Lower-case function name as referenced from SQL.
  std::string name;
  Signature signature = {};
  /// True if the body is monotone non-decreasing in its single argument
  /// over every double, NaN and ±inf aside. Interval endpoints then map
  /// through it, so a body that is not (say, one that clamps part of its
  /// domain to a constant) would let a pruning decision break Theorem 1.
  bool monotone = false;
  /// The numeric form: the compiled path calls it when every argument sits
  /// in a numeric register.
  NumericBody numeric = nullptr;
  /// The boxed form, used by Expr::Eval and for string arguments.
  BoxedBody boxed = nullptr;
};

/// Calls `fn`'s boxed form. A result that does not fit `type`, the call's
/// static type (FitsType), reads as NULL. CallExpr::Eval and the compiled
/// `call_generic` opcode both call this, so a function that breaks its
/// declared result type gives NULL in both evaluators.
Value CallBoxed(const ScalarFunction& fn, const Value* args, size_t n,
                ValueType type);

/// One nonzero multiplicity of a row in one bootstrap trial: the trial
/// flush compacts a row's weights once and folds each of its aggregates
/// over them (FoldRowTrials).
struct TrialWeight {
  int trial;
  double weight;
};

/// An aggregate argument unboxed for a trial fold: the Value's AsDouble()
/// and its type (kNull for NULL), all a fold reads.
struct TrialArg {
  double x = 0.0;
  ValueType type = ValueType::kNull;

  static TrialArg Of(const Value& v) { return {v.AsDouble(), v.type()}; }
};

/// Adds `other` into `state` slot by slot: the merge of every aggregate
/// whose state is a vector of sums.
template <int kWidth>
void AddStates(double* state, const double* other) {
  for (int i = 0; i < kWidth; ++i) state[i] += other[i];
}

/// The state of an aggregate over one group as a fixed number of doubles.
/// The all-zero state is the empty aggregate. The delta engine keeps one
/// such state per bootstrap trial, in one contiguous array per (group,
/// aggregate), and folds rows into it directly; RegisterAggregate derives
/// the definition's typed accumulator from it.
struct AggregateState {
  static constexpr int kMaxWidth = 3;

  /// Folds one argument with multiplicity `weight`. `x` is the argument's
  /// Value::AsDouble() and `type` its type: kInt64, kDouble or kString,
  /// never kNull (NULL arguments are skipped before the fold). Trial
  /// replicas never receive a zero weight; the main replica receives the
  /// row's weight as is.
  using Fold = void (*)(double* state, double x, ValueType type,
                        double weight);
  /// Folds one argument into the trials listed in `weights`: trial t's
  /// state starts at `trials + t * width`.
  using FoldTrials = void (*)(double* trials, const TrialWeight* weights,
                              size_t n, double x, ValueType type);
  using Merge = void (*)(double* state, const double* other);
  /// The result under multiplicity scale `scale` (see
  /// AggregateFunction::scales_linearly); nullopt is NULL.
  using Finish = std::optional<double> (*)(const double* state, double scale);

  /// Doubles per state, in [1, kMaxWidth].
  int width = 0;
  Fold fold = nullptr;
  /// `fold` in a loop over trials, with the fold inlined (see Of).
  FoldTrials fold_trials = nullptr;
  Merge merge = nullptr;
  Finish result = nullptr;

  /// The state of `kWidth` doubles folded by `kFold`: its `fold_trials`
  /// is FoldEachTrial<kFold, kWidth>, so a definition names its fold once.
  template <Fold kFold, int kWidth>
  static constexpr AggregateState Of(Finish result,
                                     Merge merge = AddStates<kWidth>);
};

/// AggregateState::FoldTrials of a fold known at compile time.
template <AggregateState::Fold kFold, int kWidth>
void FoldEachTrial(double* trials, const TrialWeight* weights, size_t n,
                   double x, ValueType type) {
  for (size_t i = 0; i < n; ++i) {
    kFold(trials + static_cast<size_t>(weights[i].trial) * kWidth, x, type,
          weights[i].weight);
  }
}

template <AggregateState::Fold kFold, int kWidth>
constexpr AggregateState AggregateState::Of(Finish result, Merge merge) {
  static_assert(kWidth >= 1 && kWidth <= kMaxWidth);
  return {.width = kWidth,
          .fold = kFold,
          .fold_trials = FoldEachTrial<kFold, kWidth>,
          .merge = merge,
          .result = result};
}

/// An aggregate function (built-in or user-defined): the one definition that
/// the binder, the plan, the rewrite rules, the uncertainty analysis and the
/// delta engine read. For example:
///
///   void MeanSquareFold(double* s, double x, ValueType, double w) {
///     s[0] += w * x * x;
///     s[1] += w;
///   }
///   std::optional<double> MeanSquare(const double* s, double) {
///     if (s[1] <= 0.0) return std::nullopt;
///     return s[0] / s[1];
///   }
///
///   Status status = registry->RegisterAggregate(
///       {.name = "mean_square",
///        .signature = {.params = {ParamKind::kNumeric},
///                      .result = ValueType::kDouble},
///        .state = AggregateState::Of<MeanSquareFold, 2>(MeanSquare)});
///
/// An aggregate takes one argument, checked by the binder against
/// `signature`.
struct AggregateFunction {
  using Factory = std::function<std::unique_ptr<AggAccumulator>()>;
  using ClosedFormStddev = double (*)(double n, double variance);

  /// Lower-case SQL name ("sum", "geomean", ...).
  std::string name;
  Signature signature = {};
  /// How the result depends on the multiplicity scale m_i = |D|/|D_i|:
  /// linear (SUM, COUNT: result ∝ scale) or invariant (ratio aggregates —
  /// AVG, VAR, UDAF means: scale cancels). Every supported aggregate is one
  /// of the two, which lets the engine store unscaled sketch results and
  /// re-scale lazily instead of re-publishing untouched groups each batch.
  bool scales_linearly = false;
  /// Whether the aggregate is smooth (Hadamard differentiable) under
  /// sampling, i.e., whether running results converge and bootstrap error
  /// estimation applies (§3.3). MIN/MAX are not; the uncertainty analysis
  /// rejects them over streamed relations.
  bool smooth = true;
  /// The flat state: the bootstrap trial replicas of every group hold one
  /// each. The built-in SUM and COUNT are recognised by theirs (see
  /// IsBuiltinSum).
  AggregateState state = {};
  /// Makes one group's typed accumulator (the main replica, and the
  /// reference evaluator's). RegisterAggregate derives it from `state`
  /// when empty; MIN and MAX set it, because their result has the type of
  /// their argument.
  Factory new_accumulator = nullptr;
  /// The closed-form stddev of the estimate before multiplicity scaling,
  /// from the input moments of its group (weighted count and variance); the
  /// analytic error mode (§9, analytical bootstrap [39]) reads it. Null when
  /// there is none: the group then reports no analytic estimate.
  ClosedFormStddev analytic_stddev = nullptr;
};

/// Whether `fn` is the built-in SUM or COUNT, by its state functions rather
/// than its name: the rewrite rules decompose only these, and only the
/// built-in COUNT takes `*`. A copy of the definition under another name
/// still is one.
bool IsBuiltinSum(const AggregateFunction& fn);
bool IsBuiltinCount(const AggregateFunction& fn);

/// Registry of scalar and aggregate functions. A process typically uses one
/// registry with the built-ins plus workload UDFs and UDAFs; the registry is
/// immutable during query execution.
class FunctionRegistry {
 public:
  /// Creates a registry pre-populated with the built-in scalar functions
  /// (abs, sqrt, log, exp, floor, ceil, round, pow, mod, least, greatest,
  /// if, coalesce, length, lower, upper, substr, concat), the built-in
  /// aggregates (count, sum, avg, min, max, var, stddev) and the smooth
  /// UDAFs of the Conviva workload (geomean, harmonic_mean, rms).
  static std::shared_ptr<FunctionRegistry> Default();

  /// Registers (or replaces) a scalar function. An empty `boxed` form is
  /// derived from `numeric`: arguments unbox through NumericValue::Of and
  /// the result boxes back. A function with neither body is refused with
  /// InvalidArgument, and any previous definition stays.
  Status RegisterScalar(ScalarFunction fn);

  /// Registers (or replaces, built-ins included) an aggregate function. A
  /// definition whose state lacks a function or has a width outside
  /// [1, AggregateState::kMaxWidth] is refused with InvalidArgument, and any
  /// previous definition stays.
  Status RegisterAggregate(AggregateFunction fn);

  /// Looks up a scalar function by (lower-case) name. The pointer stays
  /// valid for the registry's lifetime.
  Result<const ScalarFunction*> FindScalar(const std::string& name) const;

  /// Every registered scalar function, by name.
  const std::map<std::string, ScalarFunction>& scalars() const {
    return scalars_;
  }

  /// Looks up an aggregate function by (lower-case) name; `variance` and
  /// `std` spell var and stddev unless registered themselves. The pointer
  /// stays valid for the registry's lifetime.
  Result<const AggregateFunction*> FindAggregate(const std::string& name) const;

 private:
  std::map<std::string, ScalarFunction> scalars_;
  std::map<std::string, AggregateFunction> aggregates_;
};

}  // namespace iolap

#endif  // IOLAP_CORE_FUNCTION_REGISTRY_H_
