#include "core/function_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace iolap {

namespace {

// The boxed call of a numeric function: unbox the arguments, run the one
// numeric body, box its result. Few-argument calls unbox on the stack, so
// the interpreter pays no allocation beyond its own argument vector.
ScalarFunction::BoxedBody BoxedFromNumeric(ScalarFunction::NumericBody body) {
  return [body = std::move(body)](const Value* args, size_t n) -> Value {
    constexpr size_t kInline = 4;
    NumericValue inline_args[kInline];
    std::vector<NumericValue> heap_args;
    NumericValue* unboxed = inline_args;
    if (n > kInline) {
      heap_args.resize(n);
      unboxed = heap_args.data();
    }
    for (size_t i = 0; i < n; ++i) unboxed[i] = NumericValue::Of(args[i]);
    return body(unboxed, n).ToValue();
  };
}

// The polymorphic built-ins: one body each, instantiated for Value (the
// boxed call) and NumericValue (the numeric call).
template <bool kGreatest, typename V>
V Extreme(const V* args, size_t n) {
  V best = V::Null();
  for (size_t i = 0; i < n; ++i) {
    if (args[i].is_null()) continue;
    const int cmp = best.is_null() ? 0 : args[i].Compare(best);
    if (best.is_null() || (kGreatest ? cmp > 0 : cmp < 0)) best = args[i];
  }
  return best;
}

template <typename V>
V If(const V* args, size_t) {
  return args[0].IsTruthy() ? args[1] : args[2];
}

template <typename V>
V Coalesce(const V* args, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!args[i].is_null()) return args[i];
  }
  return V::Null();
}

// ------------------------------------------------ aggregate flat states

// The typed accumulator RegisterAggregate derives from a flat state: the
// main replica folds through the same functions as the trial replicas.
class StateAccumulator final : public AggAccumulator {
 public:
  explicit StateAccumulator(const AggregateState& state) : state_(state) {}

  void Add(const Value& v, double weight) override {
    if (!v.is_null()) state_.fold(cells_, v.AsDouble(), v.type(), weight);
  }
  void Merge(const AggAccumulator& other) override {
    state_.merge(cells_, static_cast<const StateAccumulator&>(other).cells_);
  }
  Value Result(double scale) const override {
    const std::optional<double> result = state_.result(cells_, scale);
    return result.has_value() ? Value::Double(*result) : Value::Null();
  }
  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<StateAccumulator>(*this);
  }
  size_t ByteSize() const override { return state_.width * sizeof(double); }

 private:
  AggregateState state_;
  double cells_[AggregateState::kMaxWidth] = {};
};

// COUNT, SUM and AVG: {Σw·x, Σw}.
void SumCountFold(double* s, double x, ValueType, double w) {
  s[0] += w * x;
  s[1] += w;
}
std::optional<double> CountResult(const double* s, double scale) {
  return scale * s[1];
}
std::optional<double> SumResult(const double* s, double scale) {
  if (s[1] == 0.0) return std::nullopt;
  return scale * s[0];
}
std::optional<double> AvgResult(const double* s, double) {
  if (s[1] == 0.0) return std::nullopt;
  return s[0] / s[1];
}

// VAR and STDDEV: {Σw, Σw·x, Σw·x²}.
void MomentsFold(double* s, double x, ValueType, double w) {
  s[0] += w;
  s[1] += w * x;
  s[2] += w * x * x;
}
template <bool kStddev>
std::optional<double> MomentsResult(const double* s, double) {
  if (s[0] <= 0.0) return std::nullopt;
  const double mean = s[1] / s[0];
  double var = s[2] / s[0] - mean * mean;
  if (var < 0.0) var = 0.0;  // numerical noise
  return kStddev ? std::sqrt(var) : var;
}

// MIN and MAX: {kind, value}, kind 0 empty, 1 a number, 2 a string, so the
// order is Value::Compare's (NULL < numbers < strings). A string reads as
// 0.0 (its AsDouble) and is never replaced by another string's value.
// Non-positive weights do not count, as in the typed accumulator.
template <bool kMin>
void ExtremeFold(double* s, double x, ValueType type, double w) {
  if (w <= 0.0) return;
  const double kind = type == ValueType::kString ? 2.0 : 1.0;
  const bool better = kMin ? kind < s[0] || (kind == s[0] && x < s[1])
                           : kind > s[0] || (kind == s[0] && x > s[1]);
  if (s[0] == 0.0 || better) {
    s[0] = kind;
    s[1] = x;
  }
}
template <bool kMin>
void ExtremeMerge(double* s, const double* other) {
  if (other[0] == 0.0) return;
  ExtremeFold<kMin>(s, other[1],
                    other[0] == 2.0 ? ValueType::kString : ValueType::kDouble,
                    1.0);
}
std::optional<double> ExtremeResult(const double* s, double) {
  if (s[0] == 0.0) return std::nullopt;
  return s[1];
}

// Smooth UDAFs of the Conviva workload.
// GEOMEAN(x) = exp(weighted mean of log x): {Σw, Σw·log x}, x <= 0 skipped.
void GeomeanFold(double* s, double x, ValueType, double w) {
  if (x <= 0.0) return;
  s[0] += w;
  s[1] += w * std::log(x);
}
std::optional<double> GeomeanResult(const double* s, double) {
  if (s[0] <= 0.0) return std::nullopt;
  return std::exp(s[1] / s[0]);
}

// HARMONIC_MEAN(x) = W / Σ(w/x): {Σw, Σw/x}, x <= 0 skipped.
void HarmonicFold(double* s, double x, ValueType, double w) {
  if (x <= 0.0) return;
  s[0] += w;
  s[1] += w / x;
}
std::optional<double> HarmonicResult(const double* s, double) {
  if (s[1] <= 0.0) return std::nullopt;
  return s[0] / s[1];
}

// RMS(x) = sqrt(weighted mean of x²): {Σw, Σw·x²}.
void RmsFold(double* s, double x, ValueType, double w) {
  s[0] += w;
  s[1] += w * x * x;
}
std::optional<double> RmsResult(const double* s, double) {
  if (s[0] <= 0.0) return std::nullopt;
  return std::sqrt(s[1] / s[0]);
}

}  // namespace

NumericValue NumericMod(const NumericValue& a, const NumericValue& b) {
  if (a.is_null() || b.is_null()) return NumericValue::Null();
  // Both operands go through AsDouble, as in all other arithmetic.
  const NumericValue x = TruncateToInt64(a.AsDouble());
  const NumericValue divisor = TruncateToInt64(b.AsDouble());
  if (x.is_null() || divisor.is_null() || divisor.i64 == 0) {
    return NumericValue::Null();
  }
  if (divisor.i64 == -1) return NumericValue::Int(0);
  return NumericValue::Int(x.i64 % divisor.i64);
}

bool Signature::Accepts(size_t i, ValueType type) const {
  if (i >= params.size() && !variadic.has_value()) return false;
  switch (i < params.size() ? params[i] : *variadic) {
    case ParamKind::kNumeric:
      return type != ValueType::kString;
    case ParamKind::kString:
      return type == ValueType::kString || type == ValueType::kNull;
    default:
      return true;
  }
}

ValueType Signature::ResultType(const std::vector<ValueType>& arg_types) const {
  if (result_arg < 0) return result;
  for (size_t i = static_cast<size_t>(result_arg); i < arg_types.size(); ++i) {
    if (arg_types[i] != ValueType::kNull) return arg_types[i];
  }
  return ValueType::kNull;
}

Value CallBoxed(const ScalarFunction& fn, const Value* args, size_t n,
                ValueType type) {
  Value result = fn.boxed(args, n);
  return FitsType(result.type(), type) ? result : Value::Null();
}

bool IsBuiltinSum(const AggregateFunction& fn) {
  return fn.state.fold == SumCountFold && fn.state.result == SumResult;
}

bool IsBuiltinCount(const AggregateFunction& fn) {
  return fn.state.fold == SumCountFold && fn.state.result == CountResult;
}

Status FunctionRegistry::RegisterScalar(ScalarFunction fn) {
  if (fn.numeric == nullptr && fn.boxed == nullptr) {
    return Status::InvalidArgument("scalar function " + fn.name +
                                   " has no body");
  }
  if (fn.boxed == nullptr) fn.boxed = BoxedFromNumeric(fn.numeric);
  scalars_[fn.name] = std::move(fn);
  return Status::OK();
}

Status FunctionRegistry::RegisterAggregate(AggregateFunction fn) {
  const AggregateState& state = fn.state;
  if (state.width < 1 || state.width > AggregateState::kMaxWidth ||
      state.fold == nullptr || state.fold_trials == nullptr ||
      state.merge == nullptr || state.result == nullptr) {
    return Status::InvalidArgument(
        "aggregate " + fn.name +
        " needs a flat state: fold, fold_trials, merge, result and a width "
        "in [1, " + std::to_string(AggregateState::kMaxWidth) + "]");
  }
  if (fn.new_accumulator == nullptr) {
    fn.new_accumulator = [state]() -> std::unique_ptr<AggAccumulator> {
      return std::make_unique<StateAccumulator>(state);
    };
  }
  aggregates_[fn.name] = std::move(fn);
  return Status::OK();
}

Result<const ScalarFunction*> FunctionRegistry::FindScalar(
    const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) {
    return Status::NotFound("unknown scalar function: " + name);
  }
  return &it->second;
}

Result<const AggregateFunction*> FunctionRegistry::FindAggregate(
    const std::string& name) const {
  static const std::map<std::string, std::string> kSpellings = {
      {"variance", "var"}, {"std", "stddev"}};
  auto it = aggregates_.find(name);
  if (it == aggregates_.end()) {
    const auto spelling = kSpellings.find(name);
    if (spelling != kSpellings.end()) it = aggregates_.find(spelling->second);
  }
  if (it == aggregates_.end()) {
    return Status::NotFound("unknown aggregate function: " + name);
  }
  return &it->second;
}

std::shared_ptr<FunctionRegistry> FunctionRegistry::Default() {
  auto registry = std::make_shared<FunctionRegistry>();
  const ParamKind kNum = ParamKind::kNumeric;
  const ParamKind kStr = ParamKind::kString;
  const ParamKind kAny = ParamKind::kAny;
  // The built-ins are complete definitions, which registration never
  // refuses.
  const auto scalar = [&](ScalarFunction fn) {
    const Status status = registry->RegisterScalar(std::move(fn));
    assert(status.ok());
    (void)status;
  };
  const auto aggregate = [&](AggregateFunction fn) {
    const Status status = registry->RegisterAggregate(std::move(fn));
    assert(status.ok());
    (void)status;
  };

  auto unary_math = [&](const std::string& name, double (*fn)(double),
                        bool monotone) {
    scalar(
        {.name = name,
         .signature = {.params = {kNum}, .result = ValueType::kDouble},
         .monotone = monotone,
         .numeric = [fn](const NumericValue* args, size_t) {
           if (args[0].is_null()) return NumericValue::Null();
           return NumericValue::Dbl(fn(args[0].AsDouble()));
         }});
  };
  unary_math("abs", [](double x) { return std::fabs(x); }, false);
  unary_math("sqrt", [](double x) { return x < 0 ? 0.0 : std::sqrt(x); }, true);
  // Not monotone: x <= 0 reads as 0.0, above log(x) for x in (0, 1).
  unary_math("log", [](double x) { return x <= 0 ? 0.0 : std::log(x); }, false);
  unary_math("exp", [](double x) { return std::exp(x); }, true);
  unary_math("floor", [](double x) { return std::floor(x); }, true);
  unary_math("ceil", [](double x) { return std::ceil(x); }, true);
  unary_math("round", [](double x) { return std::round(x); }, true);

  scalar(
      {.name = "pow",
       .signature = {.params = {kNum, kNum}, .result = ValueType::kDouble},
       .numeric = [](const NumericValue* args, size_t) {
         if (args[0].is_null() || args[1].is_null()) {
           return NumericValue::Null();
         }
         return NumericValue::Dbl(
             std::pow(args[0].AsDouble(), args[1].AsDouble()));
       }});
  scalar(
      {.name = "mod",
       .signature = {.params = {kNum, kNum}, .result = ValueType::kInt64},
       .numeric = [](const NumericValue* args, size_t) {
         return NumericMod(args[0], args[1]);
       }});

  // Result type: that of the first argument that is not NULL-typed (if: of
  // THEN, else of ELSE).
  const Signature any_variadic = {.variadic = kAny, .result_arg = 0};
  scalar({.name = "least",
          .signature = any_variadic,
          .numeric = Extreme<false, NumericValue>,
          .boxed = Extreme<false, Value>});
  scalar({.name = "greatest",
          .signature = any_variadic,
          .numeric = Extreme<true, NumericValue>,
          .boxed = Extreme<true, Value>});
  scalar({.name = "coalesce",
          .signature = any_variadic,
          .numeric = Coalesce<NumericValue>,
          .boxed = Coalesce<Value>});
  scalar({.name = "if",
          .signature = {.params = {kAny, kAny, kAny}, .result_arg = 1},
          .numeric = If<NumericValue>,
          .boxed = If<Value>});

  // String functions. A non-string argument (NULL) gives NULL.
  scalar(
      {.name = "length",
       .signature = {.params = {kStr}, .result = ValueType::kInt64},
       .boxed = [](const Value* args, size_t) {
         if (args[0].type() != ValueType::kString) return Value::Null();
         return Value::Int64(static_cast<int64_t>(args[0].str().size()));
       }});
  auto map_chars = [&](const std::string& name, int (*fn)(int)) {
    scalar(
        {.name = name,
         .signature = {.params = {kStr}, .result = ValueType::kString},
         .boxed = [fn](const Value* args, size_t) {
           if (args[0].type() != ValueType::kString) return Value::Null();
           std::string s = args[0].str();
           std::transform(s.begin(), s.end(), s.begin(), fn);
           return Value::String(std::move(s));
         }});
  };
  map_chars("lower", ::tolower);
  map_chars("upper", ::toupper);
  scalar(
      {.name = "substr",
       .signature = {.params = {kStr, kNum, kNum},
                     .result = ValueType::kString},
       .boxed = [](const Value* args, size_t) {
         if (args[0].type() != ValueType::kString || args[1].is_null() ||
             args[2].is_null()) {
           return Value::Null();
         }
         // SQL-style 1-based start; a start before the string reads from its
         // beginning. Positions stay doubles until clamped to the string, so
         // extreme ones cannot overflow.
         const std::string& s = args[0].str();
         const double size = static_cast<double>(s.size());
         const double start =
             std::clamp(std::trunc(args[1].AsDouble()), 1.0, size + 1) - 1;
         const double len = std::trunc(args[2].AsDouble());
         if (std::isnan(start) || std::isnan(len)) return Value::Null();
         if (start >= size || len <= 0) return Value::String("");
         return Value::String(
             s.substr(static_cast<size_t>(start),
                      static_cast<size_t>(std::min(len, size))));
       }});
  scalar(
      {.name = "concat",
       .signature = {.variadic = kAny, .result = ValueType::kString},
       .boxed = [](const Value* args, size_t n) {
         std::string out;
         for (size_t i = 0; i < n; ++i) {
           if (!args[i].is_null()) out += args[i].ToString();
         }
         return Value::String(std::move(out));
       }});

  // Aggregates. Only SUM, COUNT and AVG have a closed-form stddev.
  const Signature numeric_to_double = {.params = {kNum},
                                       .result = ValueType::kDouble};
  aggregate({.name = "count",
             .signature = {.params = {kAny}, .result = ValueType::kDouble},
             .scales_linearly = true,
             .state = AggregateState::Of<SumCountFold, 2>(CountResult),
             .analytic_stddev = [](double n, double) {
               return n <= 0.0 ? 0.0 : std::sqrt(n);
             }});
  aggregate({.name = "sum",
             .signature = numeric_to_double,
             .scales_linearly = true,
             .state = AggregateState::Of<SumCountFold, 2>(SumResult),
             .analytic_stddev = [](double n, double variance) {
               return n <= 0.0 ? 0.0 : std::sqrt(n * variance);
             }});
  aggregate({.name = "avg",
             .signature = numeric_to_double,
             .state = AggregateState::Of<SumCountFold, 2>(AvgResult),
             .analytic_stddev = [](double n, double variance) {
               return n > 1.0 ? std::sqrt(variance / n) : 0.0;
             }});
  // MIN/MAX are not smooth under sampling (§3.3), and keep their
  // argument's type: their typed accumulator holds the Value itself.
  const Signature same_type = {.params = {kAny}, .result_arg = 0};
  aggregate({.name = "min",
             .signature = same_type,
             .smooth = false,
             .state = AggregateState::Of<ExtremeFold<true>, 2>(
                 ExtremeResult, ExtremeMerge<true>),
             .new_accumulator = NewMinAccumulator});
  aggregate({.name = "max",
             .signature = same_type,
             .smooth = false,
             .state = AggregateState::Of<ExtremeFold<false>, 2>(
                 ExtremeResult, ExtremeMerge<false>),
             .new_accumulator = NewMaxAccumulator});
  aggregate({.name = "var",
             .signature = numeric_to_double,
             .state = AggregateState::Of<MomentsFold, 3>(MomentsResult<false>)});
  aggregate({.name = "stddev",
             .signature = numeric_to_double,
             .state = AggregateState::Of<MomentsFold, 3>(MomentsResult<true>)});
  aggregate({.name = "geomean",
             .signature = numeric_to_double,
             .state = AggregateState::Of<GeomeanFold, 2>(GeomeanResult)});
  aggregate({.name = "harmonic_mean",
             .signature = numeric_to_double,
             .state = AggregateState::Of<HarmonicFold, 2>(HarmonicResult)});
  aggregate({.name = "rms",
             .signature = numeric_to_double,
             .state = AggregateState::Of<RmsFold, 2>(RmsResult)});
  return registry;
}

}  // namespace iolap
