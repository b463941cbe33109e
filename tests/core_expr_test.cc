// Unit tests for the expression system: evaluation, interval propagation,
// trial-mode lineage resolution, and predicate classification.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>

#include "core/expr.h"
#include "core/function_registry.h"
#include "workloads/conviva.h"

namespace iolap {
namespace {

// A test double for the aggregate registry: fixed values / trials / ranges
// keyed by (block, col, key).
class FakeResolver : public AggLookupResolver {
 public:
  void Set(int block, int col, Row key, double value, Interval range,
           std::vector<double> trials = {}) {
    auto& entry = entries_[MakeKey(block, col, key)];
    entry.value = value;
    entry.range = range;
    entry.trials = std::move(trials);
  }

  Value Lookup(int block, int col, const Row& key) const override {
    auto it = entries_.find(MakeKey(block, col, key));
    if (it == entries_.end()) return Value::Null();
    return Value::Double(it->second.value);
  }

  Value LookupTrial(int block, int col, const Row& key,
                    int trial) const override {
    auto it = entries_.find(MakeKey(block, col, key));
    if (it == entries_.end()) return Value::Null();
    if (it->second.trials.empty()) return Value::Double(it->second.value);
    return Value::Double(
        it->second.trials[trial % it->second.trials.size()]);
  }

  Interval LookupRange(int block, int col, const Row& key) const override {
    auto it = entries_.find(MakeKey(block, col, key));
    if (it == entries_.end()) return Interval::Unbounded();
    return it->second.range;
  }

 private:
  struct Entry {
    double value = 0;
    Interval range;
    std::vector<double> trials;
  };
  static std::string MakeKey(int block, int col, const Row& key) {
    std::string s = std::to_string(block) + "/" + std::to_string(col);
    for (const Value& v : key) s += "/" + v.ToString();
    return s;
  }
  std::map<std::string, Entry> entries_;
};

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : functions_(FunctionRegistry::Default()) {
    ctx_.resolver = &resolver_;
  }

  // A call resolved against the built-ins, as the binder would bind it.
  ExprPtr Call(const std::string& name, std::vector<ExprPtr> args,
               ValueType type) const {
    return std::make_shared<CallExpr>(*functions_->FindScalar(name),
                                      std::move(args), type);
  }

  std::shared_ptr<FunctionRegistry> functions_;
  FakeResolver resolver_;
  EvalContext ctx_;
};

TEST_F(ExprTest, LiteralEval) {
  EXPECT_EQ(Lit(int64_t{5})->Eval({}, ctx_).int64(), 5);
  EXPECT_DOUBLE_EQ(Lit(2.5)->Eval({}, ctx_).dbl(), 2.5);
  EXPECT_EQ(Lit("abc")->Eval({}, ctx_).str(), "abc");
}

TEST_F(ExprTest, ColumnRefEval) {
  Row row = {Value::Int64(1), Value::String("x")};
  EXPECT_EQ(Col(1, "s", ValueType::kString)->Eval(row, ctx_).str(), "x");
}

TEST_F(ExprTest, ArithmeticPromotion) {
  auto e = Add(Lit(int64_t{2}), Lit(int64_t{3}));
  EXPECT_EQ(e->output_type(), ValueType::kInt64);
  EXPECT_EQ(e->Eval({}, ctx_).int64(), 5);

  auto d = Mul(Lit(int64_t{2}), Lit(1.5));
  EXPECT_EQ(d->output_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(d->Eval({}, ctx_).dbl(), 3.0);

  // Division always yields double.
  auto q = Div(Lit(int64_t{7}), Lit(int64_t{2}));
  EXPECT_DOUBLE_EQ(q->Eval({}, ctx_).dbl(), 3.5);
}

TEST_F(ExprTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Div(Lit(1.0), Lit(0.0))->Eval({}, ctx_).is_null());
  EXPECT_TRUE(MakeBinary(Expr::BinaryOp::kMod, Lit(int64_t{5}), Lit(int64_t{0}))
                  ->Eval({}, ctx_)
                  .is_null());
}

TEST_F(ExprTest, NullPropagation) {
  auto e = Add(Lit(Value::Null()), Lit(int64_t{1}));
  EXPECT_TRUE(e->Eval({}, ctx_).is_null());
  EXPECT_TRUE(Lt(Lit(Value::Null()), Lit(int64_t{1}))->Eval({}, ctx_).is_null());
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_TRUE(Lt(Lit(int64_t{1}), Lit(2.0))->Eval({}, ctx_).IsTruthy());
  EXPECT_TRUE(Ge(Lit(int64_t{2}), Lit(int64_t{2}))->Eval({}, ctx_).IsTruthy());
  EXPECT_TRUE(Eq(Lit("a"), Lit("a"))->Eval({}, ctx_).IsTruthy());
  EXPECT_TRUE(Ne(Lit("a"), Lit("b"))->Eval({}, ctx_).IsTruthy());
}

TEST_F(ExprTest, ThreeValuedLogic) {
  const auto kNull = Lit(Value::Null());
  const auto kTrue = Lit(int64_t{1});
  const auto kFalse = Lit(int64_t{0});
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_FALSE(And(kFalse, kNull)->Eval({}, ctx_).is_null());
  EXPECT_FALSE(And(kFalse, kNull)->Eval({}, ctx_).IsTruthy());
  EXPECT_TRUE(And(kTrue, kNull)->Eval({}, ctx_).is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_TRUE(Or(kTrue, kNull)->Eval({}, ctx_).IsTruthy());
  EXPECT_TRUE(Or(kFalse, kNull)->Eval({}, ctx_).is_null());
}

TEST_F(ExprTest, UnaryOps) {
  EXPECT_EQ(Neg(Lit(int64_t{3}))->Eval({}, ctx_).int64(), -3);
  EXPECT_FALSE(Not(Lit(int64_t{1}))->Eval({}, ctx_).IsTruthy());
  EXPECT_TRUE(Not(Lit(int64_t{0}))->Eval({}, ctx_).IsTruthy());
}

TEST_F(ExprTest, CallBuiltins) {
  auto sqrt_e = Call("sqrt", {Lit(9.0)}, ValueType::kDouble);
  EXPECT_DOUBLE_EQ(sqrt_e->Eval({}, ctx_).dbl(), 3.0);

  auto if_e =
      Call("if", {Lit(int64_t{1}), Lit("yes"), Lit("no")}, ValueType::kString);
  EXPECT_EQ(if_e->Eval({}, ctx_).str(), "yes");
}

TEST_F(ExprTest, ConjunctionHelper) {
  EXPECT_EQ(Conjunction({}), nullptr);
  auto single = Conjunction({Lit(int64_t{1})});
  EXPECT_TRUE(single->Eval({}, ctx_).IsTruthy());
  auto both = Conjunction({Lit(int64_t{1}), Lit(int64_t{0})});
  EXPECT_FALSE(both->Eval({}, ctx_).IsTruthy());
}

TEST_F(ExprTest, AggLookupScalar) {
  resolver_.Set(0, 0, {}, 37.0, Interval(21.1, 53.9), {35.0, 37.0, 39.0});
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "avg_bt");
  EXPECT_DOUBLE_EQ(lookup->Eval({}, ctx_).dbl(), 37.0);

  EvalContext trial_ctx = ctx_;
  trial_ctx.trial = 2;
  EXPECT_DOUBLE_EQ(lookup->Eval({}, trial_ctx).dbl(), 39.0);

  const Interval r = lookup->EvalInterval({}, ctx_);
  EXPECT_DOUBLE_EQ(r.lo, 21.1);
  EXPECT_DOUBLE_EQ(r.hi, 53.9);
}

TEST_F(ExprTest, AggLookupKeyed) {
  resolver_.Set(1, 1, {Value::Int64(42)}, 10.0, Interval(8, 12));
  auto lookup = std::make_shared<AggLookupExpr>(
      1, 1, std::vector<ExprPtr>{Col(0, "k", ValueType::kInt64)},
      ValueType::kDouble, "avg_qty");
  Row row = {Value::Int64(42)};
  EXPECT_DOUBLE_EQ(lookup->Eval(row, ctx_).dbl(), 10.0);
  // Missing group resolves to NULL / unbounded.
  Row other = {Value::Int64(7)};
  EXPECT_TRUE(lookup->Eval(other, ctx_).is_null());
  EXPECT_TRUE(lookup->EvalInterval(other, ctx_).IsUnbounded());
}

TEST_F(ExprTest, IntervalThroughArithmetic) {
  resolver_.Set(0, 0, {}, 37.0, Interval(20, 50));
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "a");
  // 0.2 * agg + 1: range [5, 11].
  auto expr = Add(Mul(Lit(0.2), ExprPtr(lookup)), Lit(1.0));
  const Interval r = expr->EvalInterval({}, ctx_);
  EXPECT_DOUBLE_EQ(r.lo, 5.0);
  EXPECT_DOUBLE_EQ(r.hi, 11.0);
}

TEST_F(ExprTest, MonotoneFunctionIntervalPropagation) {
  resolver_.Set(0, 0, {}, 9.0, Interval(4, 16));
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "a");
  auto expr = Call("sqrt", {ExprPtr(lookup)}, ValueType::kDouble);
  const Interval r = expr->EvalInterval({}, ctx_);
  EXPECT_DOUBLE_EQ(r.lo, 2.0);
  EXPECT_DOUBLE_EQ(r.hi, 4.0);
}

TEST_F(ExprTest, NonMonotoneUdfOverUncertainIsUnbounded) {
  resolver_.Set(0, 0, {}, 1.0, Interval(0, 2));
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "a");
  auto expr = Call("abs", {ExprPtr(lookup)}, ValueType::kDouble);
  EXPECT_TRUE(expr->EvalInterval({}, ctx_).IsUnbounded());
}

// Interval endpoints map through a function declared monotone, which is
// only sound for a non-decreasing body: check every registered one over a
// grid spanning negatives, (0, 1) and large magnitudes.
TEST_F(ExprTest, MonotoneFunctionsAreNonDecreasing) {
  RegisterConvivaUdfs(functions_.get());
  const double grid[] = {-1e300, -1e6, -10.0, -1.0, -0.5, -1e-9, 0.0,
                         1e-9,   0.25, 0.5,   0.75, 1.0,  2.0,  10.0,
                         1e6,    1e300};
  int monotone = 0;
  for (const auto& [name, fn] : functions_->scalars()) {
    if (!fn.monotone) continue;
    ++monotone;
    ASSERT_TRUE(fn.signature.AcceptsArity(1)) << name;
    double prev = -std::numeric_limits<double>::infinity();
    for (double x : grid) {
      const Value in = Value::Double(x);
      const Value out = fn.boxed(&in, 1);
      ASSERT_TRUE(out.is_numeric()) << name << "(" << x << ")";
      EXPECT_LE(prev, out.AsDouble()) << name << " decreases at " << x;
      prev = out.AsDouble();
    }
  }
  EXPECT_GT(monotone, 0);
}

// log maps x <= 0 to 0.0, so R(a) = [-1, 0.5] must not map to the inverted
// [log(-1), log(0.5)] = [0, -0.693], which would decide log(a) < -0.5 as
// always true although a = -0.5 makes it false.
TEST_F(ExprTest, LogRangeIsNotMappedThroughEndpoints) {
  resolver_.Set(0, 0, {}, 0.1, Interval(-1.0, 0.5));
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "a");
  auto log_a = Call("log", {ExprPtr(lookup)}, ValueType::kDouble);
  EXPECT_TRUE(log_a->EvalInterval({}, ctx_).IsUnbounded());
  EXPECT_EQ(ClassifyPredicate(*Lt(log_a, Lit(-0.5)), {}, ctx_),
            IntervalTruth::kUndecided);
}

// `%` and mod() share one definition: NULL for NULL, NaN, ±inf, out-of-range
// or zero divisors, and 0 for a divisor of -1 (INT64_MIN % -1 overflows).
// Statically-int64 + - * run in double; a result outside the int64 range is
// NULL, and so is negating INT64_MIN.
TEST_F(ExprTest, IntArithmeticIsDefinedOnHostileOperands) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const ExprPtr big = Lit(int64_t{5'000'000'000'000'000'000});
  ASSERT_EQ(Mul(big, Lit(int64_t{10}))->output_type(), ValueType::kInt64);
  EXPECT_TRUE(Mul(big, Lit(int64_t{10}))->Eval({}, ctx_).is_null());
  EXPECT_TRUE(Add(big, big)->Eval({}, ctx_).is_null());
  EXPECT_TRUE(Sub(Lit(kMin), big)->Eval({}, ctx_).is_null());
  EXPECT_EQ(Add(Lit(kMin), Lit(int64_t{1}))->Eval({}, ctx_).int64(), kMin);
  EXPECT_EQ(Mul(Lit(int64_t{-3}), Lit(int64_t{7}))->Eval({}, ctx_).int64(),
            -21);
  EXPECT_TRUE(Neg(Lit(kMin))->Eval({}, ctx_).is_null());
  EXPECT_EQ(Neg(Lit(kMin + 1))->Eval({}, ctx_).int64(), -(kMin + 1));
  EXPECT_TRUE(Neg(Lit(Value::Null()))->Eval({}, ctx_).is_null());
  const Value neg_zero = Neg(Lit(0.0))->Eval({}, ctx_);
  EXPECT_TRUE(std::signbit(neg_zero.dbl()));
}

TEST_F(ExprTest, ModIsDefinedOnHostileOperands) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto percent = [&](Value a, Value b) {
    return MakeBinary(Expr::BinaryOp::kMod, Lit(std::move(a)),
                      Lit(std::move(b)))
        ->Eval({}, ctx_);
  };
  auto mod = [&](Value a, Value b) {
    return Call("mod", {Lit(std::move(a)), Lit(std::move(b))},
                ValueType::kInt64)
        ->Eval({}, ctx_);
  };
  for (const auto& eval : {std::function<Value(Value, Value)>(percent),
                           std::function<Value(Value, Value)>(mod)}) {
    EXPECT_EQ(eval(Value::Int64(kMin), Value::Int64(-1)).int64(), 0);
    EXPECT_EQ(eval(Value::Int64(kMin), Value::Double(-1.5)).int64(), 0);
    EXPECT_EQ(eval(Value::Int64(kMin), Value::Int64(3)).int64(), kMin % 3);
    EXPECT_EQ(eval(Value::Int64(-7), Value::Int64(3)).int64(), -1);
    EXPECT_EQ(eval(Value::Double(9.7), Value::Int64(-4)).int64(), 1);
    EXPECT_TRUE(eval(Value::Int64(7), Value::Double(0.5)).is_null());
    EXPECT_TRUE(eval(Value::Double(1e300), Value::Int64(7)).is_null());
    EXPECT_TRUE(eval(Value::Int64(7), Value::Double(-1e300)).is_null());
    EXPECT_TRUE(eval(Value::Double(kInf), Value::Int64(7)).is_null());
    EXPECT_TRUE(eval(Value::Int64(7), Value::Double(-kInf)).is_null());
    EXPECT_TRUE(eval(Value::Double(kNaN), Value::Int64(7)).is_null());
    EXPECT_TRUE(eval(Value::Int64(7), Value::Double(kNaN)).is_null());
    // 2^63 is one past INT64_MAX.
    EXPECT_TRUE(eval(Value::Double(0x1p63), Value::Int64(7)).is_null());
    EXPECT_TRUE(eval(Value::Null(), Value::Int64(7)).is_null());
  }
}

// substr clamps its 1-based start and its length before any arithmetic.
TEST_F(ExprTest, SubstrClampsExtremePositions) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  auto substr = [&](Value start, Value len) {
    return Call("substr",
                {Lit("abc"), Lit(std::move(start)), Lit(std::move(len))},
                ValueType::kString)
        ->Eval({}, ctx_);
  };
  EXPECT_EQ(substr(Value::Int64(kMin), Value::Int64(2)).str(), "ab");
  EXPECT_EQ(substr(Value::Int64(kMax), Value::Int64(2)).str(), "");
  EXPECT_EQ(substr(Value::Int64(2), Value::Int64(kMax)).str(), "bc");
  EXPECT_EQ(substr(Value::Int64(2), Value::Int64(kMin)).str(), "");
  EXPECT_EQ(substr(Value::Double(-1e300), Value::Int64(2)).str(), "ab");
  EXPECT_EQ(substr(Value::Double(1e300), Value::Int64(2)).str(), "");
  EXPECT_EQ(substr(Value::Int64(3), Value::Double(kInf)).str(), "c");
  EXPECT_EQ(substr(Value::Int64(1), Value::Double(-kInf)).str(), "");
  EXPECT_TRUE(
      substr(Value::Double(std::nan("")), Value::Int64(1)).is_null());
  EXPECT_TRUE(
      substr(Value::Int64(1), Value::Double(std::nan(""))).is_null());
  // In-range positions keep their meaning.
  EXPECT_EQ(substr(Value::Int64(2), Value::Int64(1)).str(), "b");
  EXPECT_EQ(substr(Value::Int64(0), Value::Int64(2)).str(), "ab");
  EXPECT_EQ(substr(Value::Int64(4), Value::Int64(1)).str(), "");
}

TEST_F(ExprTest, ClassifyPredicateSbiExample) {
  // The paper's running example (§3.2): AVG(buffer_time) in [21.1, 53.9];
  // buffer_time = 58 always selected, 17 always filtered, 36 undecided.
  resolver_.Set(0, 0, {}, 37.0, Interval(21.1, 53.9));
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "avg_bt");
  auto pred = Gt(Col(0, "buffer_time", ValueType::kDouble), ExprPtr(lookup));

  EXPECT_EQ(ClassifyPredicate(*pred, {Value::Double(58)}, ctx_),
            IntervalTruth::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate(*pred, {Value::Double(17)}, ctx_),
            IntervalTruth::kAlwaysFalse);
  EXPECT_EQ(ClassifyPredicate(*pred, {Value::Double(36)}, ctx_),
            IntervalTruth::kUndecided);
}

TEST_F(ExprTest, ClassifyPredicateConjunction) {
  resolver_.Set(0, 0, {}, 37.0, Interval(21.1, 53.9));
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "a");
  auto uncertain = Gt(Col(0, "x", ValueType::kDouble), ExprPtr(lookup));
  auto det_false = Lt(Col(0, "x", ValueType::kDouble), Lit(0.0));

  // false AND undecided -> false.
  EXPECT_EQ(ClassifyPredicate(*And(det_false, uncertain),
                              {Value::Double(36)}, ctx_),
            IntervalTruth::kAlwaysFalse);
  // false OR undecided -> undecided.
  EXPECT_EQ(ClassifyPredicate(*Or(det_false, uncertain),
                              {Value::Double(36)}, ctx_),
            IntervalTruth::kUndecided);
  // NOT undecided -> undecided; NOT(always-true) -> always-false.
  EXPECT_EQ(ClassifyPredicate(*Not(uncertain), {Value::Double(36)}, ctx_),
            IntervalTruth::kUndecided);
  EXPECT_EQ(ClassifyPredicate(*Not(uncertain), {Value::Double(58)}, ctx_),
            IntervalTruth::kAlwaysFalse);
}

TEST_F(ExprTest, ClassifyDeterministicPredicate) {
  auto pred = Gt(Col(0, "x", ValueType::kDouble), Lit(10.0));
  EXPECT_EQ(ClassifyPredicate(*pred, {Value::Double(11)}, ctx_),
            IntervalTruth::kAlwaysTrue);
  EXPECT_EQ(ClassifyPredicate(*pred, {Value::Double(9)}, ctx_),
            IntervalTruth::kAlwaysFalse);
}

TEST_F(ExprTest, ColumnLineageTrialResolution) {
  // Column 1 of the row is an uncertain attribute whose lineage is a
  // scalar agg lookup; every evaluation re-derives it via the lookup,
  // ignoring the (stale) stored value.
  resolver_.Set(0, 0, {}, 37.0, Interval(30, 40), {31.0, 35.0});
  std::vector<ExprPtr> lineage(2);
  lineage[1] = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                               ValueType::kDouble, "a");
  EvalContext ctx = ctx_;
  ctx.column_lineage = &lineage;

  Row row = {Value::Int64(7), Value::Double(999.0)};  // stale stored value
  auto ref = Col(1, "u", ValueType::kDouble);

  // Main evaluation reads the lookup's current value, not the stored one.
  EXPECT_DOUBLE_EQ(ref->Eval(row, ctx).dbl(), 37.0);
  // Without a lineage table the column is the stored value.
  EXPECT_DOUBLE_EQ(ref->Eval(row, ctx_).dbl(), 999.0);
  // Trial evaluation re-derives through lineage.
  ctx.trial = 0;
  EXPECT_DOUBLE_EQ(ref->Eval(row, ctx).dbl(), 31.0);
  ctx.trial = 1;
  EXPECT_DOUBLE_EQ(ref->Eval(row, ctx).dbl(), 35.0);
  // Interval evaluation uses the lineage range.
  ctx.trial = -1;
  const Interval r = ref->EvalInterval(row, ctx);
  EXPECT_DOUBLE_EQ(r.lo, 30);
  EXPECT_DOUBLE_EQ(r.hi, 40);
  // DependsOnUncertain sees through the lineage table.
  EXPECT_TRUE(ref->DependsOnUncertain(&lineage));
  EXPECT_FALSE(Col(0, "k", ValueType::kInt64)->DependsOnUncertain(&lineage));
}

TEST_F(ExprTest, RemapColumns) {
  auto expr = Add(Col(0, "a", ValueType::kInt64), Col(2, "c", ValueType::kInt64));
  auto remapped = RemapColumns(expr, {3, -1, 0});
  Row row = {Value::Int64(100), Value::Int64(0), Value::Int64(0),
             Value::Int64(5)};
  // a moved to index 3, c moved to index 0.
  EXPECT_EQ(remapped->Eval(row, ctx_).int64(), 105);
}

TEST_F(ExprTest, ToStringRendersTree) {
  auto e = Gt(Add(Col(0, "x", ValueType::kInt64), Lit(int64_t{1})), Lit(2.0));
  EXPECT_EQ(e->ToString(), "((x + 1) > 2)");
}

TEST_F(ExprTest, RegistryLookupErrors) {
  EXPECT_FALSE(functions_->FindScalar("no_such_fn").ok());
  EXPECT_FALSE(functions_->FindAggregate("no_such_agg").ok());
  EXPECT_TRUE(functions_->FindScalar("sqrt").ok());
  EXPECT_TRUE(functions_->FindAggregate("geomean").ok());
}

// A scalar function with neither body is refused in every build, and the
// definition it would have replaced stays callable.
TEST_F(ExprTest, RegistrationRefusesScalarWithoutBody) {
  for (const char* name : {"abs", "no_body"}) {
    const Status status = functions_->RegisterScalar(
        {.name = name,
         .signature = {.params = {ParamKind::kNumeric},
                       .result = ValueType::kDouble}});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
  }
  EXPECT_FALSE(functions_->FindScalar("no_body").ok());
  const auto abs = functions_->FindScalar("abs");
  ASSERT_TRUE(abs.ok());
  const Value arg = Value::Double(-2.5);
  EXPECT_EQ((*abs)->boxed(&arg, 1).dbl(), 2.5);
  EXPECT_EQ(
      Call("abs", {Lit(-2.5)}, ValueType::kDouble)->Eval({}, ctx_).dbl(), 2.5);
}

}  // namespace
}  // namespace iolap
