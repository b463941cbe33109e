// Unit tests for aggregate accumulators, scaling, merging and UDAFs.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
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

// A definition whose flat state is missing, incomplete or of a width
// outside [1, kMaxWidth] is refused in every build, and the definition it
// would have replaced stays.
TEST(AggregateTest, RegistrationRefusesIncompleteState) {
  const auto registry = FunctionRegistry::Default();
  const AggregateFunction sum = **registry->FindAggregate("sum");
  std::vector<AggregateFunction> broken(7, sum);
  broken[0].state = {};
  broken[1].state.width = 0;
  broken[2].state.width = AggregateState::kMaxWidth + 1;
  broken[3].state.fold = nullptr;
  broken[4].state.fold_trials = nullptr;
  broken[5].state.merge = nullptr;
  broken[6].state.result = nullptr;
  for (size_t i = 0; i < broken.size(); ++i) {
    EXPECT_EQ(registry->RegisterAggregate(broken[i]).code(),
              StatusCode::kInvalidArgument)
        << i;
    broken[i].name = "broken";
    EXPECT_EQ(registry->RegisterAggregate(broken[i]).code(),
              StatusCode::kInvalidArgument)
        << i;
  }
  EXPECT_FALSE(registry->FindAggregate("broken").ok());
  const AggregateFunction& kept = **registry->FindAggregate("sum");
  EXPECT_TRUE(IsBuiltinSum(kept));
  auto acc = kept.new_accumulator();
  acc->Add(Value::Int64(4), 1.0);
  EXPECT_EQ(acc->Result(1.0).dbl(), 4.0);
}

// The accumulator bodies the flat states replaced, kept verbatim as the
// oracle the states must reproduce bit for bit.
struct ParentAccumulator {
  explicit ParentAccumulator(std::string n) : name(std::move(n)) {}

  std::string name;
  double f0 = 0.0, f1 = 0.0, f2 = 0.0;  // the parent's double fields
  Value best;                          // MIN / MAX

  void Add(const Value& v, double weight) {
    if (name == "min" || name == "max") {
      if (v.is_null() || weight <= 0.0) return;
      if (best.is_null()) {
        best = v;
        return;
      }
      const int cmp = v.Compare(best);
      if ((name == "min" && cmp < 0) || (name == "max" && cmp > 0)) best = v;
      return;
    }
    if (v.is_null()) return;
    const double x = v.AsDouble();
    if (name == "count" || name == "sum" || name == "avg") {
      // f0 = sum_, f1 = count_
      f1 += weight;
      f0 += weight * x;
    } else if (name == "var" || name == "stddev" || name == "rms") {
      // f0 = w_, f1 = wx_, f2 = wxx_
      f0 += weight;
      if (name != "rms") f1 += weight * x;
      f2 += weight * x * x;
    } else if (name == "geomean") {
      if (x <= 0.0) return;
      f0 += weight;
      f1 += weight * std::log(x);
    } else {  // harmonic_mean
      if (x <= 0.0) return;
      f0 += weight;
      f1 += weight / x;
    }
  }

  void Merge(const ParentAccumulator& o) {
    if (name == "min" || name == "max") {
      Add(o.best, 1.0);
      return;
    }
    f0 += o.f0;
    f1 += o.f1;
    f2 += o.f2;
  }

  Value Result(double scale) const {
    if (name == "min" || name == "max") return best;
    if (name == "count") return Value::Double(scale * f1);
    if (name == "sum") {
      return f1 == 0.0 ? Value::Null() : Value::Double(scale * f0);
    }
    if (name == "avg") return f1 == 0.0 ? Value::Null() : Value::Double(f0 / f1);
    if (name == "var" || name == "stddev") {
      if (f0 <= 0.0) return Value::Null();
      const double mean = f1 / f0;
      double var = f2 / f0 - mean * mean;
      if (var < 0.0) var = 0.0;
      return Value::Double(name == "stddev" ? std::sqrt(var) : var);
    }
    if (name == "geomean") {
      return f0 <= 0.0 ? Value::Null() : Value::Double(std::exp(f1 / f0));
    }
    if (name == "harmonic_mean") {
      return f1 <= 0.0 ? Value::Null() : Value::Double(f0 / f1);
    }
    return f0 <= 0.0 ? Value::Null() : Value::Double(std::sqrt(f2 / f0));
  }
};

// What a trial replica reads of a result: NULL stays NULL, anything else
// its AsDouble() (a string reads 0.0).
std::optional<double> AsReplica(const Value& v) {
  if (v.is_null()) return std::nullopt;
  return v.AsDouble();
}

bool SameBits(std::optional<double> a, std::optional<double> b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (std::isnan(*a) || std::isnan(*b)) return std::isnan(*a) && std::isnan(*b);
  return std::bit_cast<uint64_t>(*a) == std::bit_cast<uint64_t>(*b);
}

std::string Describe(std::optional<double> v) {
  return v.has_value() ? std::to_string(*v) : "NULL";
}

// The flat state of every built-in, folded, and folded in two halves then
// merged, equals the parent's accumulator bit for bit (NaN matching NaN),
// over seeded sequences with int64, 0, negatives, ±inf, NaN, NULL and,
// where the signature admits them, strings; weights from {0, 0.5, 1, 2, 3}.
TEST(AggregateTest, FlatStatesMatchParentFormulas) {
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Value> pool = {
      Value::Int64(3),        Value::Int64(-7),
      Value::Int64(0),        Value::Double(0.0),
      Value::Double(2.5),     Value::Double(-1.25),
      Value::Double(1e300),   Value::Double(kInf),
      Value::Double(-kInf),   Value::Double(std::nan("")),
      Value::Null(),          Value::Int64(int64_t{1} << 60),
      Value::String("b"),     Value::String("a")};
  const double weights[] = {0.0, 0.5, 1.0, 2.0, 3.0};
  for (const char* name : {"count", "sum", "avg", "min", "max", "var",
                           "stddev", "geomean", "harmonic_mean", "rms"}) {
    const AggregateFunction& fn = Find(name);
    const bool strings = fn.signature.Accepts(0, ValueType::kString);
    const AggregateState& state = fn.state;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Rng rng(seed);
      const size_t n = rng.NextBounded(12);
      const size_t split = rng.NextBounded(n + 1);
      ParentAccumulator whole(name), left(name), right(name);
      double flat[AggregateState::kMaxWidth] = {};
      double flat_left[AggregateState::kMaxWidth] = {};
      double flat_right[AggregateState::kMaxWidth] = {};
      auto typed = fn.new_accumulator();
      for (size_t i = 0; i < n; ++i) {
        Value v = pool[rng.NextBounded(pool.size())];
        if (!strings && v.type() == ValueType::kString) v = Value::Null();
        const double w = weights[rng.NextBounded(5)];
        whole.Add(v, w);
        (i < split ? left : right).Add(v, w);
        typed->Add(v, w);
        if (v.is_null()) continue;  // callers never fold NULL
        state.fold(flat, v.AsDouble(), v.type(), w);
        state.fold(i < split ? flat_left : flat_right, v.AsDouble(), v.type(),
                   w);
      }
      left.Merge(right);
      state.merge(flat_left, flat_right);
      for (double scale : {1.0, 2.5}) {
        SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed) +
                     " scale " + std::to_string(scale));
        const std::optional<double> want = AsReplica(whole.Result(scale));
        const std::optional<double> got = state.result(flat, scale);
        EXPECT_TRUE(SameBits(got, want))
            << Describe(got) << " vs " << Describe(want);
        const std::optional<double> merged_want =
            AsReplica(left.Result(scale));
        const std::optional<double> merged = state.result(flat_left, scale);
        EXPECT_TRUE(SameBits(merged, merged_want))
            << Describe(merged) << " vs " << Describe(merged_want);
        // The typed accumulator: MIN/MAX keep the argument itself; every
        // other one is derived from the flat state.
        const Value typed_result = typed->Result(scale);
        const Value parent_result = whole.Result(scale);
        EXPECT_EQ(typed_result.type(), parent_result.type());
        EXPECT_TRUE(SameBits(AsReplica(typed_result), want));
      }
    }
  }
}

// MIN and MAX trial states order values as Value::Compare does (NULL <
// numbers < strings), and a string best reads 0.0: over ('a', 5), min reads
// 5 and max reads 0 in either order. A state that folded only AsDouble()
// would read the opposite.
TEST(AggregateTest, MinMaxStateOrdersStringsAboveNumbers) {
  const std::vector<Value> values = {Value::String("a"), Value::Int64(5)};
  for (bool reversed : {false, true}) {
    for (const char* name : {"min", "max"}) {
      const AggregateState& state = Find(name).state;
      double s[AggregateState::kMaxWidth] = {};
      for (size_t i = 0; i < values.size(); ++i) {
        const Value& v = values[reversed ? values.size() - 1 - i : i];
        state.fold(s, v.AsDouble(), v.type(), 1.0);
      }
      EXPECT_EQ(state.result(s, 1.0), std::string(name) == "min" ? 5.0 : 0.0)
          << name << (reversed ? " reversed" : "");
    }
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
