// Unit tests for Value / Row / Schema / Table / Interval.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "core/interval.h"
#include "core/schema.h"
#include "core/table.h"
#include "core/value.h"

namespace iolap {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_FALSE(v.is_numeric());
  EXPECT_FALSE(v.IsTruthy());
}

TEST(ValueTest, Constructors) {
  EXPECT_EQ(Value::Int64(7).int64(), 7);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_EQ(Value::String("x").str(), "x");
  EXPECT_EQ(Value::Bool(true).int64(), 1);
  EXPECT_EQ(Value::Bool(false).int64(), 0);
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value::Int64(2).Equals(Value::Double(2.0)));
  EXPECT_FALSE(Value::Int64(2).Equals(Value::Double(2.5)));
  EXPECT_EQ(Value::Int64(2).Hash(), Value::Double(2.0).Hash());
}

// Hashing is defined on every double, and numbers that compare equal hash
// equal, also beyond ±2^53 where several int64s round to one double.
TEST(ValueTest, HashIsDefinedAndAgreesWithEquals) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (double d : {1e19, -1e19, kInf, -kInf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Value::Double(d).Hash(), Value::Double(d).Hash()) << d;
  }
  const int64_t k53 = int64_t{1} << 53;
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  // Numbers are equal only when they are the same number.
  const std::pair<Value, Value> equal[] = {
      {Value::Int64(k53), Value::Double(0x1p53)},
      {Value::Int64(-k53), Value::Double(-0x1p53)},
      {Value::Int64(kMin), Value::Double(-0x1p63)},
      {Value::Int64(-7), Value::Double(-7.0)},
  };
  for (const auto& [a, b] : equal) {
    ASSERT_TRUE(a.Equals(b)) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
  }
  // Beyond ±2^53 distinct int64s stay distinct, from each other and from
  // the double they round to; `a` is the larger of each pair.
  const std::pair<Value, Value> larger[] = {
      {Value::Int64(k53 + 1), Value::Double(0x1p53)},
      {Value::Int64(k53 + 1), Value::Int64(k53)},
      {Value::Double(-0x1p53), Value::Int64(-k53 - 1)},
      {Value::Double(0x1p63), Value::Int64(kMax)},
      {Value::Int64(kMin + 1), Value::Int64(kMin)},
      {Value::Double(2.5), Value::Int64(2)},
      {Value::Int64(-2), Value::Double(-2.5)},
  };
  for (const auto& [a, b] : larger) {
    EXPECT_GT(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_LT(b.Compare(a), 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_NE(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
  }
  // An int64 hashes as itself.
  for (int64_t i : {k53, -k53, k53 + 1, kMax, kMin}) {
    EXPECT_EQ(Value::Int64(i).Hash(), Mix64(static_cast<uint64_t>(i))) << i;
  }
}

TEST(ValueTest, CompareOrdersNullFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-100)), 0);
  EXPECT_LT(Value::Null().Compare(Value::String("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CompareNumbers) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Double(2.5)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
  // Numerics sort before strings.
  EXPECT_LT(Value::Int64(999).Compare(Value::String("0")), 0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_TRUE(Value::Int64(5).IsTruthy());
  EXPECT_FALSE(Value::Int64(0).IsTruthy());
  EXPECT_TRUE(Value::Double(0.1).IsTruthy());
  EXPECT_FALSE(Value::String("yes").IsTruthy());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int64(-3).ToString(), "-3");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value::Int64(1).ByteSize(), 8u);
  EXPECT_EQ(Value::Double(1).ByteSize(), 8u);
  EXPECT_EQ(Value::String("abcd").ByteSize(), 8u);  // 4 chars + 4 overhead
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
}

TEST(RowTest, HashAndEquality) {
  Row a = {Value::Int64(1), Value::String("x")};
  Row b = {Value::Int64(1), Value::String("x")};
  Row c = {Value::Int64(1), Value::String("y")};
  EXPECT_EQ(HashRow(a), HashRow(b));
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_FALSE(RowEq()(a, c));
  EXPECT_FALSE(RowEq()(a, Row{Value::Int64(1)}));
}

TEST(SchemaTest, FindColumnQualified) {
  Schema s({{"t.a", ValueType::kInt64}, {"t.b", ValueType::kDouble}});
  auto idx = s.FindColumn("t.b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1);
}

TEST(SchemaTest, FindColumnUnqualifiedSuffix) {
  Schema s({{"t.a", ValueType::kInt64}, {"u.b", ValueType::kDouble}});
  auto idx = s.FindColumn("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1);
}

TEST(SchemaTest, FindColumnAmbiguous) {
  Schema s({{"t.a", ValueType::kInt64}, {"u.a", ValueType::kDouble}});
  auto idx = s.FindColumn("a");
  EXPECT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, FindColumnMissing) {
  Schema s({{"a", ValueType::kInt64}});
  EXPECT_EQ(s.FindColumn("zz").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"y", ValueType::kString}});
  Schema c = a.Concat(b);
  EXPECT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(TableTest, AddAndSize) {
  Table t(Schema({{"a", ValueType::kInt64}}));
  t.AddRow({Value::Int64(1)});
  t.AddRow({Value::Int64(2)});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ByteSize(), 16u);
  EXPECT_NE(t.ToString().find("(2)"), std::string::npos);
}

// ------------------------------------------------------------- Interval

TEST(IntervalTest, PointAndContains) {
  Interval p = Interval::Point(3.0);
  EXPECT_TRUE(p.IsPoint());
  EXPECT_TRUE(p.Contains(3.0));
  EXPECT_FALSE(p.Contains(3.1));
}

TEST(IntervalTest, UnboundedContainsEverything) {
  Interval u = Interval::Unbounded();
  EXPECT_TRUE(u.IsUnbounded());
  EXPECT_TRUE(u.Contains(1e300));
  EXPECT_TRUE(u.ContainsInterval(Interval(-5, 5)));
}

TEST(IntervalTest, IntersectAndUnion) {
  Interval a(0, 10), b(5, 20);
  Interval i = a.Intersect(b);
  EXPECT_DOUBLE_EQ(i.lo, 5);
  EXPECT_DOUBLE_EQ(i.hi, 10);
  Interval u = a.Union(b);
  EXPECT_DOUBLE_EQ(u.lo, 0);
  EXPECT_DOUBLE_EQ(u.hi, 20);
}

TEST(IntervalTest, Arithmetic) {
  Interval a(1, 2), b(10, 20);
  EXPECT_DOUBLE_EQ(IntervalAdd(a, b).lo, 11);
  EXPECT_DOUBLE_EQ(IntervalAdd(a, b).hi, 22);
  EXPECT_DOUBLE_EQ(IntervalSub(b, a).lo, 8);
  EXPECT_DOUBLE_EQ(IntervalSub(b, a).hi, 19);
  EXPECT_DOUBLE_EQ(IntervalMul(a, b).lo, 10);
  EXPECT_DOUBLE_EQ(IntervalMul(a, b).hi, 40);
}

TEST(IntervalTest, MulWithNegatives) {
  Interval a(-2, 3), b(-5, 4);
  const Interval m = IntervalMul(a, b);
  EXPECT_DOUBLE_EQ(m.lo, -15);  // 3 * -5
  EXPECT_DOUBLE_EQ(m.hi, 12);   // 3 * 4
}

TEST(IntervalTest, DivByIntervalContainingZeroIsUnbounded) {
  EXPECT_TRUE(IntervalDiv(Interval(1, 2), Interval(-1, 1)).IsUnbounded());
}

TEST(IntervalTest, DivPositive) {
  const Interval d = IntervalDiv(Interval(10, 20), Interval(2, 5));
  EXPECT_DOUBLE_EQ(d.lo, 2);
  EXPECT_DOUBLE_EQ(d.hi, 10);
}

TEST(IntervalTest, MulUnboundedByZeroPointStaysBounded) {
  const Interval m = IntervalMul(Interval::Unbounded(), Interval::Point(0.0));
  EXPECT_DOUBLE_EQ(m.lo, 0);
  EXPECT_DOUBLE_EQ(m.hi, 0);
}

TEST(IntervalTest, LessClassification) {
  EXPECT_EQ(IntervalLess(Interval(0, 1), Interval(2, 3)),
            IntervalTruth::kAlwaysTrue);
  EXPECT_EQ(IntervalLess(Interval(2, 3), Interval(0, 1)),
            IntervalTruth::kAlwaysFalse);
  EXPECT_EQ(IntervalLess(Interval(0, 2), Interval(1, 3)),
            IntervalTruth::kUndecided);
  // Touching endpoints: 1 < 1 is false, so [0,1] < [1,2] is undecided
  // (0 < 1 true, 1 < 1 false).
  EXPECT_EQ(IntervalLess(Interval(0, 1), Interval(1, 2)),
            IntervalTruth::kUndecided);
}

TEST(IntervalTest, LessEqClassification) {
  EXPECT_EQ(IntervalLessEq(Interval(0, 1), Interval(1, 2)),
            IntervalTruth::kAlwaysTrue);
  EXPECT_EQ(IntervalLessEq(Interval(2, 3), Interval(0, 1)),
            IntervalTruth::kAlwaysFalse);
}

TEST(IntervalTest, EqClassification) {
  EXPECT_EQ(IntervalEq(Interval::Point(2), Interval::Point(2)),
            IntervalTruth::kAlwaysTrue);
  EXPECT_EQ(IntervalEq(Interval(0, 1), Interval(2, 3)),
            IntervalTruth::kAlwaysFalse);
  EXPECT_EQ(IntervalEq(Interval(0, 2), Interval(1, 3)),
            IntervalTruth::kUndecided);
}

TEST(IntervalTest, NegateTruth) {
  EXPECT_EQ(Negate(IntervalTruth::kAlwaysTrue), IntervalTruth::kAlwaysFalse);
  EXPECT_EQ(Negate(IntervalTruth::kAlwaysFalse), IntervalTruth::kAlwaysTrue);
  EXPECT_EQ(Negate(IntervalTruth::kUndecided), IntervalTruth::kUndecided);
}

}  // namespace
}  // namespace iolap
