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

// ----------------------------------- smooth UDAFs of the Conviva workload

// GEOMEAN(x) = exp(weighted mean of log x); non-positive inputs skipped.
class GeomeanAccumulator final : public AggAccumulator {
 public:
  void Add(const Value& v, double weight) override {
    if (v.is_null()) return;
    const double x = v.AsDouble();
    if (x <= 0.0) return;
    w_ += weight;
    wlog_ += weight * std::log(x);
  }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const GeomeanAccumulator&>(other);
    w_ += o.w_;
    wlog_ += o.wlog_;
  }
  Value Result(double) const override {
    return w_ <= 0.0 ? Value::Null() : Value::Double(std::exp(wlog_ / w_));
  }
  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<GeomeanAccumulator>(*this);
  }
  size_t ByteSize() const override { return 2 * sizeof(double); }

 private:
  double w_ = 0.0;
  double wlog_ = 0.0;
};

// HARMONIC_MEAN(x) = W / sum(w/x); non-positive inputs skipped.
class HarmonicAccumulator final : public AggAccumulator {
 public:
  void Add(const Value& v, double weight) override {
    if (v.is_null()) return;
    const double x = v.AsDouble();
    if (x <= 0.0) return;
    w_ += weight;
    winv_ += weight / x;
  }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const HarmonicAccumulator&>(other);
    w_ += o.w_;
    winv_ += o.winv_;
  }
  Value Result(double) const override {
    return winv_ <= 0.0 ? Value::Null() : Value::Double(w_ / winv_);
  }
  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<HarmonicAccumulator>(*this);
  }
  size_t ByteSize() const override { return 2 * sizeof(double); }

 private:
  double w_ = 0.0;
  double winv_ = 0.0;
};

// RMS(x) = sqrt(weighted mean of x^2).
class RmsAccumulator final : public AggAccumulator {
 public:
  void Add(const Value& v, double weight) override {
    if (v.is_null()) return;
    const double x = v.AsDouble();
    w_ += weight;
    wxx_ += weight * x * x;
  }
  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const RmsAccumulator&>(other);
    w_ += o.w_;
    wxx_ += o.wxx_;
  }
  Value Result(double) const override {
    return w_ <= 0.0 ? Value::Null() : Value::Double(std::sqrt(wxx_ / w_));
  }
  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<RmsAccumulator>(*this);
  }
  size_t ByteSize() const override { return 2 * sizeof(double); }

 private:
  double w_ = 0.0;
  double wxx_ = 0.0;
};

template <typename Accumulator>
std::unique_ptr<AggAccumulator> NewAccumulator() {
  return std::make_unique<Accumulator>();
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
  return static_cast<size_t>(result_arg) < arg_types.size()
             ? arg_types[result_arg]
             : ValueType::kNull;
}

void FunctionRegistry::RegisterScalar(ScalarFunction fn) {
  assert(fn.numeric != nullptr || fn.boxed != nullptr);
  if (fn.boxed == nullptr) fn.boxed = BoxedFromNumeric(fn.numeric);
  scalars_[fn.name] = std::move(fn);
}

void FunctionRegistry::RegisterAggregate(AggregateFunction fn) {
  assert(fn.new_accumulator != nullptr);
  aggregates_[fn.name] = std::move(fn);
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

  auto unary_math = [&](const std::string& name, double (*fn)(double),
                        bool monotone) {
    registry->RegisterScalar(
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

  registry->RegisterScalar(
      {.name = "pow",
       .signature = {.params = {kNum, kNum}, .result = ValueType::kDouble},
       .numeric = [](const NumericValue* args, size_t) {
         if (args[0].is_null() || args[1].is_null()) {
           return NumericValue::Null();
         }
         return NumericValue::Dbl(
             std::pow(args[0].AsDouble(), args[1].AsDouble()));
       }});
  registry->RegisterScalar(
      {.name = "mod",
       .signature = {.params = {kNum, kNum}, .result = ValueType::kInt64},
       .numeric = [](const NumericValue* args, size_t) {
         return NumericMod(args[0], args[1]);
       }});

  // Result type: that of the first argument (if: of the THEN branch).
  const Signature any_variadic = {.variadic = kAny, .result_arg = 0};
  registry->RegisterScalar({.name = "least",
                            .signature = any_variadic,
                            .numeric = Extreme<false, NumericValue>,
                            .boxed = Extreme<false, Value>});
  registry->RegisterScalar({.name = "greatest",
                            .signature = any_variadic,
                            .numeric = Extreme<true, NumericValue>,
                            .boxed = Extreme<true, Value>});
  registry->RegisterScalar({.name = "coalesce",
                            .signature = any_variadic,
                            .numeric = Coalesce<NumericValue>,
                            .boxed = Coalesce<Value>});
  registry->RegisterScalar(
      {.name = "if",
       .signature = {.params = {kAny, kAny, kAny}, .result_arg = 1},
       .numeric = If<NumericValue>,
       .boxed = If<Value>});

  // String functions. A NULL-typed argument can still carry a number at run
  // time (coalesce(NULL, 5)); the bodies read it as NULL.
  registry->RegisterScalar(
      {.name = "length",
       .signature = {.params = {kStr}, .result = ValueType::kInt64},
       .boxed = [](const Value* args, size_t) {
         if (args[0].type() != ValueType::kString) return Value::Null();
         return Value::Int64(static_cast<int64_t>(args[0].str().size()));
       }});
  auto map_chars = [&](const std::string& name, int (*fn)(int)) {
    registry->RegisterScalar(
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
  registry->RegisterScalar(
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
  registry->RegisterScalar(
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
  registry->RegisterAggregate(
      {.name = "count",
       .signature = {.params = {kAny}, .result = ValueType::kDouble},
       .scales_linearly = true,
       .new_accumulator = NewCountAccumulator,
       .analytic_stddev = [](double n, double) {
         return n <= 0.0 ? 0.0 : std::sqrt(n);
       }});
  registry->RegisterAggregate(
      {.name = "sum",
       .signature = numeric_to_double,
       .scales_linearly = true,
       .new_accumulator = NewSumAccumulator,
       .analytic_stddev = [](double n, double variance) {
         return n <= 0.0 ? 0.0 : std::sqrt(n * variance);
       }});
  registry->RegisterAggregate(
      {.name = "avg",
       .signature = numeric_to_double,
       .new_accumulator = NewAvgAccumulator,
       .analytic_stddev = [](double n, double variance) {
         return n > 1.0 ? std::sqrt(variance / n) : 0.0;
       }});
  // MIN/MAX are not smooth under sampling (§3.3), and keep their
  // argument's type.
  const Signature same_type = {.params = {kAny}, .result_arg = 0};
  registry->RegisterAggregate({.name = "min",
                               .signature = same_type,
                               .smooth = false,
                               .new_accumulator = NewMinAccumulator});
  registry->RegisterAggregate({.name = "max",
                               .signature = same_type,
                               .smooth = false,
                               .new_accumulator = NewMaxAccumulator});
  registry->RegisterAggregate({.name = "var",
                               .signature = numeric_to_double,
                               .new_accumulator = NewVarAccumulator});
  registry->RegisterAggregate({.name = "stddev",
                               .signature = numeric_to_double,
                               .new_accumulator = NewStddevAccumulator});
  registry->RegisterAggregate(
      {.name = "geomean",
       .signature = numeric_to_double,
       .new_accumulator = NewAccumulator<GeomeanAccumulator>});
  registry->RegisterAggregate(
      {.name = "harmonic_mean",
       .signature = numeric_to_double,
       .new_accumulator = NewAccumulator<HarmonicAccumulator>});
  registry->RegisterAggregate(
      {.name = "rms",
       .signature = numeric_to_double,
       .new_accumulator = NewAccumulator<RmsAccumulator>});
  return registry;
}

}  // namespace iolap
