// Property-based tests over randomly generated expression trees and data:
//
//  1. Interval soundness: for any expression and any realization of its
//     uncertain aggregates within their ranges, the evaluated value lies
//     inside the expression's evaluated interval.
//  2. Classification soundness: a predicate classified kAlwaysTrue /
//     kAlwaysFalse evaluates accordingly under every in-range realization.
//  3. Constraint soundness: bounds pushed by a decided comparison are
//     satisfied by the realization the decision was made under.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/random.h"
#include "core/expr.h"

namespace iolap {
namespace {

// A resolver with one scalar uncertain value per block id; realized values
// are switched per "trial" to emulate future realizations within (or
// outside) the range.
class ScenarioResolver : public AggLookupResolver {
 public:
  void Set(int block, double value, Interval range) {
    values_[block] = value;
    ranges_[block] = range;
  }
  void Realize(int block, double value) { values_[block] = value; }
  double value(int block) const { return values_.at(block); }
  Interval range(int block) const { return ranges_.at(block); }
  size_t size() const { return values_.size(); }

  Value Lookup(int block, int, const Row&) const override {
    return Value::Double(values_.at(block));
  }
  Value LookupTrial(int block, int, const Row&, int) const override {
    return Value::Double(values_.at(block));
  }
  Interval LookupRange(int block, int, const Row&) const override {
    return ranges_.at(block);
  }

 private:
  std::map<int, double> values_;
  std::map<int, Interval> ranges_;
};

// Recording sink for constraint-soundness checks.
class RecordingSink : public RangeConstraintSink {
 public:
  struct Bound {
    int block;
    bool upper;
    double bound;
  };
  std::vector<Bound> bounds;
  std::vector<int> containments;

  void RequireUpper(int block, int, const Row&, double bound) override {
    bounds.push_back({block, true, bound});
  }
  void RequireLower(int block, int, const Row&, double bound) override {
    bounds.push_back({block, false, bound});
  }
  void RequireContainment(int block, int, const Row&) override {
    containments.push_back(block);
  }
};

// Builds a random numeric expression over two row columns and up to two
// uncertain lookups.
ExprPtr RandomNumericExpr(Rng* rng, int depth, int* lookups_used) {
  const int kMaxLookups = 2;
  if (depth <= 0) {
    switch (rng->NextBounded(4)) {
      case 0:
        return Lit(static_cast<double>(rng->NextBounded(20)) - 10.0);
      case 1:
        return Col(0, "x", ValueType::kDouble);
      case 2:
        return Col(1, "y", ValueType::kDouble);
      default:
        if (*lookups_used < kMaxLookups) {
          const int block = (*lookups_used)++;
          return std::make_shared<AggLookupExpr>(
              block, 0, std::vector<ExprPtr>{}, ValueType::kDouble,
              "u" + std::to_string(block));
        }
        return Lit(static_cast<double>(rng->NextBounded(5)) + 1.0);
    }
  }
  const ExprPtr left = RandomNumericExpr(rng, depth - 1, lookups_used);
  const ExprPtr right = RandomNumericExpr(rng, depth - 1, lookups_used);
  switch (rng->NextBounded(4)) {
    case 0:
      return Add(left, right);
    case 1:
      return Sub(left, right);
    case 2:
      return Mul(left, right);
    default:
      return Div(left, right);
  }
}

class ExprPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExprPropertyTest, IntervalContainsEveryRealization) {
  Rng rng(1000 + GetParam() * 97);

  for (int iteration = 0; iteration < 60; ++iteration) {
    ScenarioResolver resolver;
    // Two uncertain values with random ranges.
    double centers[2];
    for (int b = 0; b < 2; ++b) {
      centers[b] = rng.NextDouble() * 20 - 10;
      const double radius = rng.NextDouble() * 5;
      resolver.Set(b, centers[b],
                   Interval(centers[b] - radius, centers[b] + radius));
    }
    EvalContext ctx;
    ctx.resolver = &resolver;

    int lookups_used = 0;
    const ExprPtr expr = RandomNumericExpr(&rng, 3, &lookups_used);
    Row row = {Value::Double(rng.NextDouble() * 10),
               Value::Double(rng.NextDouble() * 10 - 5)};
    const Interval interval = expr->EvalInterval(row, ctx);

    // Realize the uncertain values at several in-range points (including
    // the endpoints) and check containment.
    for (int sample = 0; sample < 8; ++sample) {
      for (int b = 0; b < 2; ++b) {
        const Interval r = resolver.range(b);
        const double t = sample == 0 ? 0.0
                         : sample == 1 ? 1.0
                                       : rng.NextDouble();
        resolver.Realize(b, r.lo + t * (r.hi - r.lo));
      }
      const Value v = expr->Eval(row, ctx);
      if (v.is_null()) continue;  // division by zero: no containment claim
      EXPECT_GE(v.AsDouble(), interval.lo - 1e-9 * (1 + std::fabs(interval.lo)))
          << expr->ToString();
      EXPECT_LE(v.AsDouble(), interval.hi + 1e-9 * (1 + std::fabs(interval.hi)))
          << expr->ToString();
    }
  }
}

TEST_P(ExprPropertyTest, DecidedPredicatesHoldUnderRealizations) {
  Rng rng(5000 + GetParam() * 31);
  int decided_seen = 0;

  for (int iteration = 0; iteration < 120; ++iteration) {
    ScenarioResolver resolver;
    for (int b = 0; b < 2; ++b) {
      const double center = rng.NextDouble() * 20 - 10;
      const double radius = rng.NextDouble() * 3;
      resolver.Set(b, center, Interval(center - radius, center + radius));
    }
    EvalContext ctx;
    ctx.resolver = &resolver;

    int lookups_used = 0;
    const ExprPtr lhs = RandomNumericExpr(&rng, 2, &lookups_used);
    const ExprPtr rhs = RandomNumericExpr(&rng, 2, &lookups_used);
    const Expr::BinaryOp ops[] = {Expr::BinaryOp::kLt, Expr::BinaryOp::kLe,
                                  Expr::BinaryOp::kGt, Expr::BinaryOp::kGe};
    const ExprPtr pred = MakeBinary(ops[rng.NextBounded(4)], lhs, rhs);
    Row row = {Value::Double(rng.NextDouble() * 10),
               Value::Double(rng.NextDouble() * 10 - 5)};

    const IntervalTruth truth = ClassifyPredicate(*pred, row, ctx);
    if (truth == IntervalTruth::kUndecided) continue;
    ++decided_seen;

    for (int sample = 0; sample < 10; ++sample) {
      for (int b = 0; b < 2; ++b) {
        const Interval r = resolver.range(b);
        resolver.Realize(b, r.lo + rng.NextDouble() * (r.hi - r.lo));
      }
      const Value v = pred->Eval(row, ctx);
      if (v.is_null()) continue;
      EXPECT_EQ(v.IsTruthy(), truth == IntervalTruth::kAlwaysTrue)
          << pred->ToString();
    }
  }
  EXPECT_GT(decided_seen, 5);  // the test must actually exercise decisions
}

TEST_P(ExprPropertyTest, PushedConstraintsHoldAtDecisionPoint) {
  Rng rng(9000 + GetParam() * 13);
  int bounds_seen = 0;

  for (int iteration = 0; iteration < 150; ++iteration) {
    ScenarioResolver resolver;
    const double center = rng.NextDouble() * 20 - 10;
    const double radius = rng.NextDouble() * 3;
    resolver.Set(0, center, Interval(center - radius, center + radius));

    RecordingSink sink;
    EvalContext ctx;
    ctx.resolver = &resolver;
    ctx.constraint_sink = &sink;

    // A monotone-recognizable shape: (a·u + b) ϑ c.
    const double a = (rng.NextDouble() * 4 - 2);
    const double b = rng.NextDouble() * 10 - 5;
    const double c = rng.NextDouble() * 30 - 15;
    auto lookup = std::make_shared<AggLookupExpr>(
        0, 0, std::vector<ExprPtr>{}, ValueType::kDouble, "u");
    const ExprPtr pred =
        rng.NextBounded(2) == 0
            ? Lt(Add(Mul(Lit(a), ExprPtr(lookup)), Lit(b)), Lit(c))
            : Ge(Add(Mul(Lit(a), ExprPtr(lookup)), Lit(b)), Lit(c));

    const IntervalTruth truth = ClassifyPredicate(*pred, Row{}, ctx);
    if (truth == IntervalTruth::kUndecided) {
      EXPECT_TRUE(sink.bounds.empty());
      EXPECT_TRUE(sink.containments.empty());
      continue;
    }
    // Every pushed bound must hold for the current (and any in-range)
    // realization — the decision was made against this very range.
    for (const RecordingSink::Bound& bound : sink.bounds) {
      ++bounds_seen;
      const Interval r = resolver.range(bound.block);
      if (bound.upper) {
        EXPECT_LE(r.hi, bound.bound + 1e-9 * (1 + std::fabs(bound.bound)))
            << pred->ToString();
      } else {
        EXPECT_GE(r.lo, bound.bound - 1e-9 * (1 + std::fabs(bound.bound)))
            << pred->ToString();
      }
    }
  }
  EXPECT_GT(bounds_seen, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprPropertyTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace iolap
