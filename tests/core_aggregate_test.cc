// Unit tests for aggregate accumulators, scaling, merging and UDAFs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/aggregate.h"
#include "core/function_registry.h"

namespace iolap {
namespace {

const FunctionRegistry& Functions() {
  static const auto functions = FunctionRegistry::Default();
  return *functions;
}

const AggregateFunction& Find(const std::string& name) {
  auto fn = Functions().FindAggregate(name);
  EXPECT_TRUE(fn.ok()) << name;
  return **fn;
}

std::unique_ptr<AggAccumulator> NewAcc(const std::string& name) {
  return Find(name).new_accumulator();
}

TEST(AggregateTest, CountScalesWithMultiplicity) {
  auto acc = NewAcc("count");
  acc->Add(Value::Int64(1), 1.0);
  acc->Add(Value::Int64(2), 2.0);  // weight 2 = seen "twice"
  EXPECT_DOUBLE_EQ(acc->Result(1.0).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(acc->Result(10.0).AsDouble(), 30.0);
}

TEST(AggregateTest, CountIgnoresNull) {
  auto acc = NewAcc("count");
  acc->Add(Value::Null(), 1.0);
  acc->Add(Value::Int64(5), 1.0);
  EXPECT_DOUBLE_EQ(acc->Result(1.0).AsDouble(), 1.0);
}

TEST(AggregateTest, SumScalesAvgDoesNot) {
  auto sum = NewAcc("sum");
  auto avg = NewAcc("avg");
  for (int x : {10, 20, 30}) {
    sum->Add(Value::Int64(x), 1.0);
    avg->Add(Value::Int64(x), 1.0);
  }
  EXPECT_DOUBLE_EQ(sum->Result(2.0).AsDouble(), 120.0);
  EXPECT_DOUBLE_EQ(avg->Result(2.0).AsDouble(), 20.0);  // ratio: scale cancels
}

TEST(AggregateTest, EmptySumAndAvgAreNull) {
  EXPECT_TRUE(NewAcc("sum")->Result(1.0).is_null());
  EXPECT_TRUE(NewAcc("avg")->Result(1.0).is_null());
  EXPECT_DOUBLE_EQ(NewAcc("count")->Result(1.0).AsDouble(), 0.0);
}

TEST(AggregateTest, MinMax) {
  auto mn = NewAcc("min");
  auto mx = NewAcc("max");
  for (int x : {5, -3, 9}) {
    mn->Add(Value::Int64(x), 1.0);
    mx->Add(Value::Int64(x), 1.0);
  }
  EXPECT_EQ(mn->Result(1.0).int64(), -3);
  EXPECT_EQ(mx->Result(1.0).int64(), 9);
}

TEST(AggregateTest, MinMaxNotSampleable) {
  EXPECT_FALSE(Find("min").smooth);
  EXPECT_FALSE(Find("max").smooth);
  EXPECT_TRUE(Find("avg").smooth);
}

TEST(AggregateTest, VarianceAndStddev) {
  auto var = NewAcc("var");
  auto sd = NewAcc("stddev");
  for (int x : {2, 4, 4, 4, 5, 5, 7, 9}) {
    var->Add(Value::Int64(x), 1.0);
    sd->Add(Value::Int64(x), 1.0);
  }
  EXPECT_NEAR(var->Result(1.0).AsDouble(), 4.0, 1e-9);
  EXPECT_NEAR(sd->Result(1.0).AsDouble(), 2.0, 1e-9);
}

TEST(AggregateTest, MergeEqualsSequential) {
  auto a = NewAcc("avg");
  auto b = NewAcc("avg");
  auto whole = NewAcc("avg");
  for (int x = 0; x < 10; ++x) {
    (x % 2 == 0 ? a : b)->Add(Value::Int64(x), 1.0);
    whole->Add(Value::Int64(x), 1.0);
  }
  a->Merge(*b);
  EXPECT_DOUBLE_EQ(a->Result(1.0).AsDouble(), whole->Result(1.0).AsDouble());
}

TEST(AggregateTest, CloneIsIndependent) {
  auto acc = NewAcc("sum");
  acc->Add(Value::Int64(10), 1.0);
  auto copy = acc->Clone();
  copy->Add(Value::Int64(5), 1.0);
  EXPECT_DOUBLE_EQ(acc->Result(1.0).AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(copy->Result(1.0).AsDouble(), 15.0);
}

TEST(AggregateTest, ByteSizeIsSmall) {
  // Sketch states must be sub-linear: a handful of doubles.
  EXPECT_LE(NewAcc("avg")->ByteSize(), 64u);
  EXPECT_LE(NewAcc("var")->ByteSize(), 64u);
}

// Built-ins and UDAFs are all registered definitions, found by one lookup
// under the name they carry.
TEST(AggregateTest, FindAggregateResolvesEveryName) {
  for (const char* name : {"count", "sum", "avg", "min", "max", "var",
                           "stddev", "geomean", "harmonic_mean", "rms"}) {
    const auto fn = Functions().FindAggregate(name);
    ASSERT_TRUE(fn.ok()) << name;
    EXPECT_EQ((*fn)->name, name);
    EXPECT_NE((*fn)->new_accumulator, nullptr) << name;
  }
  EXPECT_EQ(&Find("variance"), &Find("var"));
  EXPECT_EQ(&Find("std"), &Find("stddev"));
  const auto unknown = Functions().FindAggregate("median");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// Only SUM and COUNT scale with m_i, and only SUM, COUNT and AVG have a
// closed-form stddev: sqrt(n·var), sqrt(n) and sqrt(var/n).
TEST(AggregateTest, ScalingAndClosedForms) {
  for (const char* name : {"count", "sum"}) {
    EXPECT_TRUE(Find(name).scales_linearly) << name;
  }
  for (const char* name : {"avg", "min", "max", "var", "stddev", "geomean",
                           "harmonic_mean", "rms"}) {
    EXPECT_FALSE(Find(name).scales_linearly) << name;
  }
  EXPECT_DOUBLE_EQ(Find("sum").analytic_stddev(100.0, 4.0), 20.0);
  EXPECT_DOUBLE_EQ(Find("count").analytic_stddev(100.0, 4.0), 10.0);
  EXPECT_DOUBLE_EQ(Find("avg").analytic_stddev(100.0, 4.0), 0.2);
  for (const char* name : {"sum", "count", "avg"}) {
    EXPECT_DOUBLE_EQ(Find(name).analytic_stddev(0.0, 0.0), 0.0) << name;
  }
  EXPECT_DOUBLE_EQ(Find("avg").analytic_stddev(1.0, 4.0), 0.0);
  for (const char* name : {"min", "max", "var", "stddev", "geomean",
                           "harmonic_mean", "rms"}) {
    EXPECT_EQ(Find(name).analytic_stddev, nullptr) << name;
  }
}

class UdafTest : public ::testing::Test {
 protected:
  UdafTest() : registry_(FunctionRegistry::Default()) {}

  std::unique_ptr<AggAccumulator> NewUdaf(const std::string& name) {
    auto fn = registry_->FindAggregate(name);
    EXPECT_TRUE(fn.ok()) << name;
    return (*fn)->new_accumulator();
  }

  std::shared_ptr<FunctionRegistry> registry_;
};

TEST_F(UdafTest, Geomean) {
  auto acc = NewUdaf("geomean");
  acc->Add(Value::Double(2.0), 1.0);
  acc->Add(Value::Double(8.0), 1.0);
  EXPECT_NEAR(acc->Result(1.0).AsDouble(), 4.0, 1e-9);
  // Non-positive values are skipped, not poisoned.
  acc->Add(Value::Double(-1.0), 1.0);
  EXPECT_NEAR(acc->Result(1.0).AsDouble(), 4.0, 1e-9);
}

TEST_F(UdafTest, HarmonicMean) {
  auto acc = NewUdaf("harmonic_mean");
  acc->Add(Value::Double(1.0), 1.0);
  acc->Add(Value::Double(2.0), 1.0);
  EXPECT_NEAR(acc->Result(1.0).AsDouble(), 4.0 / 3.0, 1e-9);
}

TEST_F(UdafTest, Rms) {
  auto acc = NewUdaf("rms");
  acc->Add(Value::Double(3.0), 1.0);
  acc->Add(Value::Double(4.0), 1.0);
  EXPECT_NEAR(acc->Result(1.0).AsDouble(), std::sqrt(12.5), 1e-9);
}

TEST_F(UdafTest, UdafsAreSmooth) {
  for (const char* name : {"geomean", "harmonic_mean", "rms"}) {
    auto fn = registry_->FindAggregate(name);
    ASSERT_TRUE(fn.ok());
    EXPECT_TRUE((*fn)->smooth) << name;
  }
}

TEST_F(UdafTest, UdafMergeAndClone) {
  auto a = NewUdaf("rms");
  a->Add(Value::Double(3.0), 1.0);
  auto b = NewUdaf("rms");
  b->Add(Value::Double(4.0), 1.0);
  auto c = a->Clone();
  c->Merge(*b);
  EXPECT_NEAR(c->Result(1.0).AsDouble(), std::sqrt(12.5), 1e-9);
  EXPECT_NEAR(a->Result(1.0).AsDouble(), 3.0, 1e-9);  // a untouched
}

TEST_F(UdafTest, WeightedUdaf) {
  // A bootstrap trial weighting of 2 must equal adding the value twice.
  auto weighted = NewUdaf("geomean");
  weighted->Add(Value::Double(2.0), 2.0);
  weighted->Add(Value::Double(8.0), 1.0);
  auto repeated = NewUdaf("geomean");
  repeated->Add(Value::Double(2.0), 1.0);
  repeated->Add(Value::Double(2.0), 1.0);
  repeated->Add(Value::Double(8.0), 1.0);
  EXPECT_NEAR(weighted->Result(1.0).AsDouble(),
              repeated->Result(1.0).AsDouble(), 1e-9);
}

}  // namespace
}  // namespace iolap
