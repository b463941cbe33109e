// Unit tests for the bootstrap layer: poissonized multiplicities, trial
// accumulators, error estimates, and variation-range tracking with
// decision constraints.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bootstrap/error_estimate.h"
#include "bootstrap/poisson_multiplicities.h"
#include "bootstrap/trial_accumulator.h"
#include "bootstrap/variation_range.h"
#include "common/random.h"
#include "core/function_registry.h"

namespace iolap {
namespace {

TEST(BootstrapWeightsTest, DeterministicPerRowAndTrial) {
  BootstrapWeights a(7, 50);
  BootstrapWeights b(7, 50);
  for (uint64_t uid : {0ull, 5ull, 999ull}) {
    for (int t = 0; t < 50; ++t) {
      EXPECT_EQ(a.WeightAt(uid, t), b.WeightAt(uid, t));
    }
  }
}

TEST(BootstrapWeightsTest, DifferentSeedsDiffer) {
  BootstrapWeights a(1, 100);
  BootstrapWeights b(2, 100);
  int diffs = 0;
  for (int t = 0; t < 100; ++t) {
    diffs += a.WeightAt(42, t) != b.WeightAt(42, t);
  }
  EXPECT_GT(diffs, 10);
}

TEST(BootstrapWeightsTest, MeanAndVarianceNearOne) {
  BootstrapWeights weights(3, 1);
  double sum = 0, sumsq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int w = weights.WeightAt(static_cast<uint64_t>(i), 0);
    sum += w;
    sumsq += static_cast<double>(w) * w;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1.0, 0.02);
  EXPECT_NEAR(sumsq / n - mean * mean, 1.0, 0.03);
}

TEST(BootstrapWeightsTest, RowOverheadMatchesTrials) {
  EXPECT_EQ(BootstrapWeights(0, 64).RowOverheadBytes(), 64u);
}

// ------------------------------------------------- TrialAccumulatorSet

const AggregateFunction& Aggregate(const std::string& name) {
  static const auto functions = FunctionRegistry::Default();
  return **functions->FindAggregate(name);
}

// Folds `v` as the engine does: the main value with `weight`, trial t with
// weight × trial_weights[t].
void Fold(TrialAccumulatorSet* acc, const Value& v, double weight,
          const std::vector<int>& trial_weights) {
  acc->AddMainOnly(v, weight);
  for (size_t t = 0; t < trial_weights.size(); ++t) {
    acc->AddTrialOnly(static_cast<int>(t), v, weight * trial_weights[t]);
  }
}

TEST(TrialAccumulatorTest, MainAndTrialsIndependent) {
  TrialAccumulatorSet acc(Aggregate("sum"), 3);
  Fold(&acc, Value::Double(10), 1.0, {0, 1, 2});
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 10.0);
  const auto trials = acc.TrialResults(1.0);
  ASSERT_EQ(trials.size(), 3u);
  EXPECT_DOUBLE_EQ(trials[0], 10.0);  // empty trial falls back to main
  EXPECT_DOUBLE_EQ(trials[1], 10.0);
  EXPECT_DOUBLE_EQ(trials[2], 20.0);
}

TEST(TrialAccumulatorTest, NullTrialWeightsMeanUniform) {
  TrialAccumulatorSet acc(Aggregate("count"), 2);
  Fold(&acc, Value::Int64(1), 2.0, {1, 1});
  for (double t : acc.TrialResults(1.0)) EXPECT_DOUBLE_EQ(t, 2.0);
}

// A row whose value differs per trial (an uncertain aggregate input) folds
// its main value and each trial's replica separately.
TEST(TrialAccumulatorTest, AddPerTrialUsesTrialValues) {
  TrialAccumulatorSet acc(Aggregate("avg"), 2);
  // main value 10; trial replicas 8 and 12.
  acc.AddMainOnly(Value::Double(10), 1.0);
  acc.AddTrialOnly(0, Value::Double(8), 1.0);
  acc.AddTrialOnly(1, Value::Double(12), 1.0);
  acc.AddTrialOnly(1, Value::Double(99), 0.0);  // a zero weight is skipped
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 10.0);
  const auto trials = acc.TrialResults(1.0);
  EXPECT_DOUBLE_EQ(trials[0], 8.0);
  EXPECT_DOUBLE_EQ(trials[1], 12.0);
}

TEST(TrialAccumulatorTest, AddMainOnlyAndTrialOnly) {
  TrialAccumulatorSet acc(Aggregate("sum"), 2);
  acc.AddMainOnly(Value::Double(5), 1.0);
  acc.AddTrialOnly(1, Value::Double(7), 1.0);
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 5.0);
  const auto trials = acc.TrialResults(1.0);
  EXPECT_DOUBLE_EQ(trials[0], 5.0);  // empty -> main fallback
  EXPECT_DOUBLE_EQ(trials[1], 7.0);
}

TEST(TrialAccumulatorTest, CloneAndMerge) {
  TrialAccumulatorSet a(Aggregate("sum"), 2);
  Fold(&a, Value::Double(1), 1.0, {1, 1});
  TrialAccumulatorSet b = a.Clone();
  Fold(&b, Value::Double(2), 1.0, {1, 1});
  EXPECT_DOUBLE_EQ(a.MainResult(1.0).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(b.MainResult(1.0).AsDouble(), 3.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.MainResult(1.0).AsDouble(), 4.0);
  EXPECT_GT(a.ByteSize(), 0u);
}

// A zero trial weight never folds: 0 × ±inf and 0 × NaN are NaN, so a
// trial whose multiplicity is 0 must read exactly as if the value were
// absent, whichever path folds it (a pending row's per-trial values, or a
// certain row's Poisson weights).
TEST(TrialAccumulatorTest, ZeroWeightNeverFolds) {
  const double kInf = std::numeric_limits<double>::infinity();
  constexpr int kTrials = 8;
  const BootstrapWeights bootstrap(/*seed=*/3, kTrials);
  // A streamed row with weight 0 in some trials and nonzero in others.
  uint64_t uid = 0;
  auto mixed = [&](uint64_t u) {
    bool zero = false;
    bool nonzero = false;
    for (int t = 0; t < kTrials; ++t) {
      (bootstrap.WeightAt(u, t) == 0 ? zero : nonzero) = true;
    }
    return zero && nonzero;
  };
  while (!mixed(uid)) ++uid;
  const std::vector<int> trial_weights = {0, 1, 0, 1, 2, 0, 1, 0};

  for (const char* name :
       {"sum", "avg", "var", "geomean", "harmonic_mean", "rms"}) {
    for (double special : {kInf, -kInf, std::nan("")}) {
      SCOPED_TRACE(std::string(name) + " " + std::to_string(special));
      const AggregateFunction& fn = Aggregate(name);
      TrialAccumulatorSet absent(fn, kTrials);
      Fold(&absent, Value::Double(2.0), 1.0, std::vector<int>(kTrials, 1));
      const std::vector<double> want = absent.TrialResults(1.0);

      // Pending-row path: one value per trial with its own weight.
      TrialAccumulatorSet pending = absent.Clone();
      for (int t = 0; t < kTrials; ++t) {
        pending.AddTrialOnly(t, Value::Double(special), trial_weights[t]);
      }
      // Certain-row path: the flush's record and Poisson weights.
      TrialAccumulatorSet certain = absent.Clone();
      DeferredTrialFolds folds;
      folds.AddRow(&certain, uid, 1.0, /*from_stream=*/true);
      folds.AddArg(0, Value::Double(special));
      folds.FoldTrials(bootstrap, 0, kTrials);

      const std::vector<double> got_pending = pending.TrialResults(1.0);
      const std::vector<double> got_certain = certain.TrialResults(1.0);
      for (int t = 0; t < kTrials; ++t) {
        if (trial_weights[t] == 0) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got_pending[t]),
                    std::bit_cast<uint64_t>(want[t]))
              << "pending trial " << t;
        }
        if (bootstrap.WeightAt(uid, t) == 0) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got_certain[t]),
                    std::bit_cast<uint64_t>(want[t]))
              << "certain trial " << t;
        }
      }
      if (std::string(name) == "sum") {
        // The value does reach the trials that weigh it.
        EXPECT_EQ(want[0], 2.0);
        EXPECT_TRUE(std::isnan(special) ? std::isnan(got_pending[1])
                                        : got_pending[1] == special);
      }
    }
  }
}

// ------------------------------------------------------ ErrorEstimate

TEST(ErrorEstimateTest, DegenerateWithFewTrials) {
  const ErrorEstimate est = EstimateError(5.0, {});
  EXPECT_DOUBLE_EQ(est.value, 5.0);
  EXPECT_DOUBLE_EQ(est.stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.ci_lo, 5.0);
  EXPECT_DOUBLE_EQ(est.ci_hi, 5.0);
}

TEST(ErrorEstimateTest, StddevAndCi) {
  std::vector<double> trials;
  for (int i = 0; i < 101; ++i) trials.push_back(90.0 + 0.2 * i);  // 90..110
  const ErrorEstimate est = EstimateError(100.0, trials);
  EXPECT_NEAR(est.stddev, 5.87, 0.1);
  EXPECT_NEAR(est.rel_stddev, 0.0587, 0.001);
  EXPECT_NEAR(est.ci_lo, 90.5, 0.2);   // 2.5th percentile
  EXPECT_NEAR(est.ci_hi, 109.5, 0.2);  // 97.5th percentile
  EXPECT_FALSE(est.ToString().empty());
}

TEST(ErrorEstimateTest, RelStddevOfZeroValue) {
  const ErrorEstimate est = EstimateError(0.0, {-1.0, 1.0});
  EXPECT_GT(est.stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.rel_stddev, est.stddev);
}

// The CI percentiles come from bounded tail buffers (past about 600
// replicas, from a selection on a copy), not a sort, and must equal the
// sorted-vector interpolation bit for bit, infinities included. The one
// exception is a tie between -0.0 and +0.0, which either algorithm may
// resolve to either sign (neither orders equal values), so zero results
// compare with ==. The scaled form must equal the estimate over a scaled
// copy in every field, and a NaN replica, which has no order, makes the
// whole band NaN.
TEST(ErrorEstimateTest, PercentilesMatchSortedReference) {
  auto reference = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const double pos = p * (v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - lo;
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  auto expect_same = [&](double got, double want, const std::string& context) {
    if (want == 0.0) {
      EXPECT_EQ(got, 0.0) << context;
    } else {
      EXPECT_EQ(bits(got), bits(want))
          << context << ": " << got << " vs " << want;
    }
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double tied[] = {-2.5, -0.0, 0.0, 1.0, 3.75};
  Rng rng(17);
  for (size_t n : {2, 3, 20, 60, 100, 101, 1000}) {
    for (int round = 0; round < 200; ++round) {
      // Rounds 1 mod 4 draw from five values, so most entries are tied;
      // rounds 2 mod 4 put an infinity of either sign in about one entry in
      // eight.
      std::vector<double> trials;
      for (size_t i = 0; i < n; ++i) {
        double x = round % 4 == 1 ? tied[rng.NextBounded(5)]
                                  : rng.NextDouble() * 200.0 - 100.0;
        if (round % 4 == 2 && rng.NextBounded(8) == 0) {
          x = rng.NextBounded(2) == 0 ? kInf : -kInf;
        }
        trials.push_back(x);
      }
      const ErrorEstimate est = EstimateError(1.0, trials);
      const std::string context =
          "n=" + std::to_string(n) + " round=" + std::to_string(round);
      expect_same(est.ci_lo, reference(trials, 0.025), context);
      expect_same(est.ci_hi, reference(trials, 0.975), context);

      const double scale = 1.0 + 40.0 * rng.NextDouble();
      std::vector<double> scaled = trials;
      for (double& x : scaled) x *= scale;
      const ErrorEstimate in_pass = EstimateError(-3.5, trials, scale);
      const ErrorEstimate on_copy = EstimateError(-3.5, scaled);
      for (auto field : {&ErrorEstimate::value, &ErrorEstimate::stddev,
                         &ErrorEstimate::rel_stddev, &ErrorEstimate::ci_lo,
                         &ErrorEstimate::ci_hi}) {
        EXPECT_EQ(bits(in_pass.*field), bits(on_copy.*field))
            << context << " scale=" << scale;
      }

      trials[rng.NextBounded(n)] = std::numeric_limits<double>::quiet_NaN();
      const ErrorEstimate with_nan = EstimateError(1.0, trials, scale);
      EXPECT_TRUE(std::isnan(with_nan.stddev)) << context;
      EXPECT_TRUE(std::isnan(with_nan.ci_lo)) << context;
      EXPECT_TRUE(std::isnan(with_nan.ci_hi)) << context;
    }
  }
}

// The analytic mode's estimate of an AVG: the avg definition's closed form
// sqrt(var / n), presented as a normal interval.
TEST(ErrorEstimateTest, AnalyticEstimate) {
  const auto closed_form = Aggregate("avg").analytic_stddev;
  ASSERT_NE(closed_form, nullptr);
  const ErrorEstimate est =
      EstimateFromStddev(100.0, closed_form(100.0, 400.0));
  EXPECT_NEAR(est.stddev, 2.0, 1e-9);
  EXPECT_NEAR(est.ci_lo, 100 - 3.92, 0.01);
  EXPECT_NEAR(est.ci_hi, 100 + 3.92, 0.01);
  // Degenerate inputs: a single tuple, and no closed form at all.
  EXPECT_DOUBLE_EQ(EstimateFromStddev(5, closed_form(1, 4)).stddev, 0.0);
  const ErrorEstimate none = EstimateFromStddev(5, -1.0);
  EXPECT_DOUBLE_EQ(none.stddev, 0.0);
  EXPECT_DOUBLE_EQ(none.ci_lo, 5.0);
  EXPECT_DOUBLE_EQ(none.ci_hi, 5.0);
}

// -------------------------------------------------- VariationRangeTracker

TEST(VariationRangeTest, UnboundedBeforeFirstUpdate) {
  VariationRangeTracker tracker(2.0);
  EXPECT_TRUE(tracker.current().IsUnbounded());
}

TEST(VariationRangeTest, FirstUpdateSetsPaddedEnvelope) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {8.0, 10.0, 12.0}).ok);
  const Interval r = tracker.current();
  const double sd = 2.0;  // stddev of {8,10,12}
  EXPECT_NEAR(r.lo, 8.0 - 2.0 * sd, 1e-9);
  EXPECT_NEAR(r.hi, 12.0 + 2.0 * sd, 1e-9);
}

TEST(VariationRangeTest, UnconstrainedValuesNeverFail) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {9, 10, 11}).ok);
  // Wild excursions are fine while nothing depends on the range.
  ASSERT_TRUE(tracker.Update(1000.0, {900, 1000, 1100}).ok);
  ASSERT_TRUE(tracker.Update(-50.0, {-60, -50, -40}).ok);
  EXPECT_EQ(tracker.num_batches(), 3);
}

TEST(VariationRangeTest, ConstraintViolationFails) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {9, 10, 11}).ok);
  tracker.ConstrainUpper(20.0);  // a pruning decision needs v <= 20
  ASSERT_TRUE(tracker.Update(12.0, {11, 12, 13}).ok);
  const auto result = tracker.Update(25.0, {24, 25, 26});
  EXPECT_FALSE(result.ok);
}

TEST(VariationRangeTest, LowerConstraint) {
  VariationRangeTracker tracker(1.0);
  ASSERT_TRUE(tracker.Update(100.0, {95, 100, 105}).ok);
  tracker.ConstrainLower(50.0);
  ASSERT_TRUE(tracker.Update(80.0, {75, 80, 85}).ok);
  EXPECT_FALSE(tracker.Update(40.0, {35, 40, 45}).ok);
}

TEST(VariationRangeTest, DecayingValueWithUpperConstraintOnlyIsFine) {
  // The q18 scenario: a scaled per-group SUM decays towards its true value
  // after the group is fully seen. A decided-false comparison only bounds
  // it from above, so the decay never violates anything.
  VariationRangeTracker tracker(2.0);
  double value = 100.0;
  ASSERT_TRUE(tracker.Update(value, {80, 100, 120}).ok);
  tracker.ConstrainUpper(200.0);
  for (int b = 1; b <= 20; ++b) {
    value *= 0.9;
    ASSERT_TRUE(
        tracker.Update(value, {value * 0.8, value, value * 1.2}).ok)
        << "batch " << b;
  }
}

TEST(VariationRangeTest, FailureReportsLastConsistentBatch) {
  VariationRangeTracker tracker(0.0);
  ASSERT_TRUE(tracker.Update(10, {10}).ok);      // batch 0: no constraints
  tracker.ConstrainUpper(100.0);                 // loose constraint
  ASSERT_TRUE(tracker.Update(11, {11}).ok);      // batch 1
  tracker.ConstrainUpper(15.0);                  // tight constraint
  ASSERT_TRUE(tracker.Update(12, {12}).ok);      // batch 2
  const auto result = tracker.Update(50, {50});  // violates <=15 and <=100...
  ASSERT_FALSE(result.ok);
  // 50 violates both constraints; only batch 0 (unconstrained) contains it.
  EXPECT_EQ(result.last_consistent_batch, 0);
}

TEST(VariationRangeTest, FailureWalksToLooserConstraint) {
  // Engine call order: the block publishes batch b (Update), then
  // downstream classifications of batch b register their constraints —
  // so a constraint belongs to the snapshot of the batch whose decisions
  // created it, and rolling back to the previous batch undoes it.
  VariationRangeTracker tracker(0.0);
  ASSERT_TRUE(tracker.Update(10, {10}).ok);  // batch 0 published
  tracker.ConstrainUpper(100.0);             // decision during batch 0
  ASSERT_TRUE(tracker.Update(11, {11}).ok);  // batch 1 published
  tracker.ConstrainUpper(15.0);              // decision during batch 1
  ASSERT_TRUE(tracker.Update(12, {12}).ok);  // batch 2
  const auto result = tracker.Update(30, {30});
  ASSERT_FALSE(result.ok);
  // 30 violates the batch-1 decision (<=15) but honours batch 0 (<=100):
  // recovery lands on batch 0, undoing the batch-1 decision.
  EXPECT_EQ(result.last_consistent_batch, 0);
}

TEST(VariationRangeTest, RecoverRestoresConstraintsAndFreezes) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10, {9, 10, 11}).ok);
  ASSERT_TRUE(tracker.Update(10, {9, 10, 11}).ok);
  tracker.ConstrainUpper(12.0);
  ASSERT_FALSE(tracker.Update(20, {19, 20, 21}).ok);
  tracker.RecoverTo(0, /*freeze_updates=*/2);
  EXPECT_EQ(tracker.num_batches(), 1);
  // During the freeze the classification range is just the recovered
  // constraints — unbounded below here.
  EXPECT_TRUE(std::isinf(tracker.current().lo));
  // Replay: updates within the frozen window append without narrowing.
  ASSERT_TRUE(tracker.Update(20, {19, 20, 21}).ok);
  EXPECT_TRUE(std::isinf(tracker.current().lo));
  ASSERT_TRUE(tracker.Update(20, {19, 20, 21}).ok);
  // Freeze expired: the padded envelope returns.
  ASSERT_TRUE(tracker.Update(20, {19, 20, 21}).ok);
  EXPECT_FALSE(std::isinf(tracker.current().lo));
}

TEST(VariationRangeTest, RecoverToScratch) {
  VariationRangeTracker tracker(2.0);
  tracker.ConstrainUpper(5.0);
  ASSERT_TRUE(tracker.Update(4, {4}).ok);
  tracker.RecoverTo(-1, 0);
  EXPECT_EQ(tracker.num_batches(), 0);
  EXPECT_TRUE(tracker.current().IsUnbounded());
  // Constraints were cleared: large values pass again.
  EXPECT_TRUE(tracker.Update(100, {100}).ok);
}

TEST(VariationRangeTest, CurrentIntersectsConstraints) {
  VariationRangeTracker tracker(2.0);
  ASSERT_TRUE(tracker.Update(10.0, {8, 10, 12}).ok);
  tracker.ConstrainUpper(11.0);
  const Interval r = tracker.current();
  EXPECT_DOUBLE_EQ(r.hi, 11.0);
}

TEST(VariationRangeTest, ZeroSlackIsBareEnvelope) {
  VariationRangeTracker tracker(0.0);
  ASSERT_TRUE(tracker.Update(10.0, {8, 10, 12}).ok);
  EXPECT_DOUBLE_EQ(tracker.current().lo, 8.0);
  EXPECT_DOUBLE_EQ(tracker.current().hi, 12.0);
}

}  // namespace
}  // namespace iolap
