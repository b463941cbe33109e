#ifndef IOLAP_CORE_FUNCTION_REGISTRY_H_
#define IOLAP_CORE_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/value.h"

namespace iolap {

class AggFunction;

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
  /// Mirrors Value::Compare() over non-NULL numerics: by value.
  int Compare(const NumericValue& other) const {
    if (f64 < other.f64) return -1;
    if (f64 > other.f64) return 1;
    return 0;
  }
};

/// SQL `%` and mod(): both operands truncate toward zero to int64 and the
/// result takes the dividend's sign. NULL when either operand is NULL, NaN,
/// ±inf or outside the int64 range, or when the divisor truncates to 0. A
/// divisor of -1 yields 0 (INT64_MIN % -1 would overflow). The interpreter,
/// the compiled `mod` opcode and the mod() built-in all call this.
NumericValue NumericMod(const NumericValue& a, const NumericValue& b);

/// What a scalar function parameter accepts. A NULL-typed argument (the
/// literal NULL, or a call whose result type follows one) fits every kind.
enum class ParamKind : uint8_t {
  kNumeric,  // int64 or double
  kString,
  kAny,
};

/// The typed signature of a scalar function: the one rule table that the
/// binder (arity, argument kinds, result type), the expression compiler
/// (which call form to emit) and the program verifier (register kinds at
/// call sites) all read.
struct Signature {
  /// The fixed leading parameters.
  std::vector<ParamKind> params = {};
  /// When set, zero or more further arguments of this kind may follow.
  std::optional<ParamKind> variadic = std::nullopt;
  /// The result type, unless `result_arg` >= 0: then a call has the static
  /// type of that argument (kNull when the call has fewer arguments).
  ValueType result = ValueType::kNull;
  int result_arg = -1;

  bool AcceptsArity(size_t n) const {
    return variadic.has_value() ? n >= params.size() : n == params.size();
  }
  /// Whether argument `i` (requires AcceptsArity(i + 1)) may have static
  /// type `type`: no string for kNumeric, only a string for kString.
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
///   registry->RegisterScalar(
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
  /// The boxed form, used by the interpreter and for string arguments.
  BoxedBody boxed = nullptr;
};

/// Registry of scalar functions and aggregate (UDAF) factories. A process
/// typically uses one registry with the built-ins plus workload UDFs; the
/// registry is immutable during query execution.
class FunctionRegistry {
 public:
  /// Creates a registry pre-populated with the built-in scalar functions
  /// (abs, sqrt, log, exp, floor, ceil, round, pow, mod, least, greatest,
  /// if, coalesce, length, lower, upper, substr, concat) and built-in UDAF
  /// factories (geomean, harmonic_mean, rms).
  static std::shared_ptr<FunctionRegistry> Default();

  /// Registers (or replaces) a scalar function. An empty `boxed` form is
  /// derived from `numeric`: arguments unbox through NumericValue::Of and
  /// the result boxes back.
  void RegisterScalar(ScalarFunction fn);

  /// Registers (or replaces) a user-defined aggregate.
  void RegisterAggregate(const std::string& name,
                         std::shared_ptr<const AggFunction> agg);

  /// Looks up a scalar function by (lower-case) name. The pointer stays
  /// valid for the registry's lifetime.
  Result<const ScalarFunction*> FindScalar(const std::string& name) const;

  /// Every registered scalar function, by name.
  const std::map<std::string, ScalarFunction>& scalars() const {
    return scalars_;
  }

  /// Looks up a UDAF by (lower-case) name.
  Result<std::shared_ptr<const AggFunction>> FindAggregate(
      const std::string& name) const;

  bool HasAggregate(const std::string& name) const;

 private:
  std::map<std::string, ScalarFunction> scalars_;
  std::map<std::string, std::shared_ptr<const AggFunction>> aggregates_;
};

}  // namespace iolap

#endif  // IOLAP_CORE_FUNCTION_REGISTRY_H_
