// Unit tests for the bootstrap layer: poissonized multiplicities, trial
// accumulators, error estimates, and variation-range tracking with
// decision constraints.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
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

// Folds one row's trials [0, w.size()) through the engine's per-tuple
// fold: aggregate a takes args[a] in every trial, or, with `trial_args`,
// its argument of that trial.
void FoldRow(TrialAccumulatorSet* accs, size_t num_aggs, const Value* args,
             const std::vector<double>& w,
             const TrialArg* trial_args = nullptr) {
  std::vector<TrialWeight> scratch(w.size());
  FoldRowTrials(accs, num_aggs, args, trial_args, w.data(), 0,
                static_cast<int>(w.size()), scratch.data());
}

// Folds `v` as the engine does: the main value with `weight`, trial t with
// weight × trial_weights[t].
void Fold(TrialAccumulatorSet* acc, const Value& v, double weight,
          const std::vector<int>& trial_weights) {
  acc->AddMainOnly(v, weight);
  std::vector<double> w;
  for (int tw : trial_weights) w.push_back(weight * tw);
  FoldRow(acc, 1, &v, w);
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
  const Value main_value = Value::Double(10);
  acc.AddMainOnly(main_value, 1.0);
  const TrialArg replicas[] = {TrialArg::Of(Value::Double(8)),
                               TrialArg::Of(Value::Double(12))};
  FoldRow(&acc, 1, &main_value, {1.0, 1.0}, replicas);
  // A zero weight is skipped.
  const TrialArg skipped[] = {TrialArg::Of(Value::Double(99)),
                              TrialArg::Of(Value::Double(99))};
  FoldRow(&acc, 1, &main_value, {0.0, 0.0}, skipped);
  EXPECT_DOUBLE_EQ(acc.MainResult(1.0).AsDouble(), 10.0);
  const auto trials = acc.TrialResults(1.0);
  EXPECT_DOUBLE_EQ(trials[0], 8.0);
  EXPECT_DOUBLE_EQ(trials[1], 12.0);
}

TEST(TrialAccumulatorTest, AddMainOnlyAndTrialOnly) {
  TrialAccumulatorSet acc(Aggregate("sum"), 2);
  acc.AddMainOnly(Value::Double(5), 1.0);
  const Value trial_only = Value::Double(7);
  FoldRow(&acc, 1, &trial_only, {0.0, 1.0});
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
// absent, whichever argument source the fold reads (per-trial arguments,
// where an argument reads an uncertain value, or the row's main argument
// over its Poisson weights, folded in two lane ranges as the flush does).
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
  const std::vector<double> trial_weights = {0, 1, 0, 1, 2, 0, 1, 0};
  std::vector<double> poisson(kTrials);
  for (int t = 0; t < kTrials; ++t) poisson[t] = bootstrap.WeightAt(uid, t);

  for (const char* name :
       {"sum", "avg", "var", "geomean", "harmonic_mean", "rms"}) {
    for (double special : {kInf, -kInf, std::nan("")}) {
      SCOPED_TRACE(std::string(name) + " " + std::to_string(special));
      const AggregateFunction& fn = Aggregate(name);
      TrialAccumulatorSet absent(fn, kTrials);
      Fold(&absent, Value::Double(2.0), 1.0, std::vector<int>(kTrials, 1));
      const std::vector<double> want = absent.TrialResults(1.0);
      const Value v = Value::Double(special);

      // Per-trial arguments, each with its own weight.
      TrialAccumulatorSet per_trial = absent.Clone();
      const std::vector<TrialArg> args(kTrials, TrialArg::Of(v));
      FoldRow(&per_trial, 1, nullptr, trial_weights, args.data());
      // The main argument over the row's Poisson weights, in two ranges.
      TrialAccumulatorSet by_main = absent.Clone();
      std::vector<TrialWeight> scratch(kTrials);
      FoldRowTrials(&by_main, 1, &v, nullptr, poisson.data(), 0, 3,
                    scratch.data());
      FoldRowTrials(&by_main, 1, &v, nullptr, poisson.data(), 3, kTrials,
                    scratch.data());

      const std::vector<double> got_per_trial = per_trial.TrialResults(1.0);
      const std::vector<double> got_main = by_main.TrialResults(1.0);
      for (int t = 0; t < kTrials; ++t) {
        if (trial_weights[t] == 0) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got_per_trial[t]),
                    std::bit_cast<uint64_t>(want[t]))
              << "per-trial argument, trial " << t;
        }
        if (bootstrap.WeightAt(uid, t) == 0) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got_main[t]),
                    std::bit_cast<uint64_t>(want[t]))
              << "main argument, trial " << t;
        }
      }
      if (std::string(name) == "sum") {
        // The value does reach the trials that weigh it.
        EXPECT_EQ(want[0], 2.0);
        EXPECT_TRUE(std::isnan(special) ? std::isnan(got_per_trial[1])
                                        : got_per_trial[1] == special);
      }
    }
  }
}

// The two argument sources of the fold agree bit for bit: a row's main
// argument folded over its surviving weights equals per-trial arguments
// that all equal it, for every built-in aggregate and UDAF, on hostile
// arguments, whether the trials fold in one range or in two lane ranges.
TEST(TrialAccumulatorTest, MainArgumentFoldEqualsEqualPerTrialArguments) {
  const double kInf = std::numeric_limits<double>::infinity();
  constexpr int kTrials = 24;
  const char* const kNames[] = {"count", "sum",     "avg",
                                "min",   "max",     "var",
                                "stddev", "geomean", "harmonic_mean",
                                "rms"};
  constexpr size_t kAggs = std::size(kNames);
  const BootstrapWeights bootstrap(/*seed=*/11, kTrials);
  // A streamed row's weights (1.5 × Poisson), with the trials a per-trial
  // filter fails zeroed, and a base row folded first in every trial.
  std::vector<double> w(kTrials);
  for (int t = 0; t < kTrials; ++t) {
    w[t] = t % 5 == 3 ? 0.0 : 1.5 * bootstrap.WeightAt(41, t);
  }
  const std::vector<double> base_w(kTrials, 1.0);
  const Value base = Value::Double(2.5);

  std::vector<Value> specials = {Value::Double(0.0),  Value::Double(-0.0),
                                 Value::Double(kInf), Value::Double(-kInf),
                                 Value::Double(std::nan("")), Value::Null(),
                                 Value::Double(-3.75), Value::Int64(7)};
  for (const Value& v : specials) {
    SCOPED_TRACE(v.ToString());
    std::vector<TrialAccumulatorSet> by_main;
    std::vector<TrialAccumulatorSet> by_trial;
    for (const char* name : kNames) {
      by_main.emplace_back(Aggregate(name), kTrials);
      by_trial.emplace_back(Aggregate(name), kTrials);
    }
    const std::vector<Value> bases(kAggs, base);
    FoldRow(by_main.data(), kAggs, bases.data(), base_w);
    FoldRow(by_trial.data(), kAggs, bases.data(), base_w);

    const std::vector<Value> main_args(kAggs, v);
    FoldRow(by_main.data(), kAggs, main_args.data(), w);
    const std::vector<TrialArg> trial_args(kTrials * kAggs, TrialArg::Of(v));
    std::vector<TrialWeight> scratch(kTrials);
    FoldRowTrials(by_trial.data(), kAggs, nullptr, trial_args.data(),
                  w.data(), 0, 10, scratch.data());
    FoldRowTrials(by_trial.data(), kAggs, nullptr, trial_args.data(),
                  w.data(), 10, kTrials, scratch.data());

    for (size_t a = 0; a < kAggs; ++a) {
      const std::vector<double> got_main = by_main[a].TrialResults(1.0);
      const std::vector<double> got_trial = by_trial[a].TrialResults(1.0);
      for (int t = 0; t < kTrials; ++t) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got_main[t]),
                  std::bit_cast<uint64_t>(got_trial[t]))
            << kNames[a] << " trial " << t;
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
// resolve to either sign, so zero results compare with ==. The scaled form
// must equal the estimate over a scaled copy in every field, and so must
// the form that takes the ranks of the unscaled replicas, each multiplied
// by the scale (what the registry stores and rescales): for scales from 1
// to 1e300, where products overflow to ±inf and distinct replicas tie, and
// with ties between -0.0 and +0.0 in both the buffered and the selection
// paths. A NaN replica, which has no order, makes the whole band NaN.
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
  const double tied[] = {-7e10, -2.5, -0.0, 0.0, 1.0, 3.75e10, 9e10};
  // The estimate from the ranks of the unscaled replicas, scaled.
  auto from_stored_ranks = [](double value, const std::vector<double>& trials,
                              double scale) {
    const ReplicaRanks stored = RankReplicas(trials.data(), trials.size());
    const ReplicaRanks ranks = {{stored.lo[0] * scale, stored.lo[1] * scale},
                                {stored.hi[0] * scale, stored.hi[1] * scale}};
    return EstimateError(value, trials.data(), trials.size(), scale, ranks);
  };
  Rng rng(17);
  for (size_t n : {2, 3, 20, 60, 100, 101, 1000}) {
    for (int round = 0; round < 200; ++round) {
      // Rounds 1 mod 4 draw from seven values, so most entries are tied,
      // and rounds 5 mod 8 make 97% of them signed zeros, so that ties of
      // -0.0 and +0.0 hold the CI ranks; rounds 2 mod 4 put an infinity of
      // either sign in about one entry in eight; rounds 3 mod 4 draw
      // magnitudes up to 1e12.
      std::vector<double> trials;
      for (size_t i = 0; i < n; ++i) {
        double x = round % 4 == 1 ? tied[rng.NextBounded(7)]
                                  : rng.NextDouble() * 200.0 - 100.0;
        if (round % 8 == 5 && rng.NextBounded(100) < 97) {
          x = rng.NextBounded(2) == 0 ? -0.0 : 0.0;
        }
        if (round % 4 == 2 && rng.NextBounded(8) == 0) {
          x = rng.NextBounded(2) == 0 ? kInf : -kInf;
        }
        if (round % 4 == 3) x *= 1e10;
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
      const double huge = std::pow(10.0, 300.0 * rng.NextDouble());
      std::vector<double> scaled_huge = trials;
      for (double& x : scaled_huge) x *= huge;
      const ErrorEstimate stored = from_stored_ranks(-3.5, trials, scale);
      const ErrorEstimate stored_huge = from_stored_ranks(-3.5, trials, huge);
      const ErrorEstimate on_copy_huge = EstimateError(-3.5, scaled_huge);
      for (auto field : {&ErrorEstimate::value, &ErrorEstimate::stddev,
                         &ErrorEstimate::rel_stddev, &ErrorEstimate::ci_lo,
                         &ErrorEstimate::ci_hi}) {
        EXPECT_EQ(bits(in_pass.*field), bits(on_copy.*field))
            << context << " scale=" << scale;
        EXPECT_EQ(bits(stored.*field), bits(on_copy.*field))
            << context << " stored ranks, scale=" << scale;
        EXPECT_EQ(bits(stored_huge.*field), bits(on_copy_huge.*field))
            << context << " stored ranks, scale=" << huge;
      }

      trials[rng.NextBounded(n)] = std::numeric_limits<double>::quiet_NaN();
      const ErrorEstimate with_nan = EstimateError(1.0, trials, scale);
      EXPECT_TRUE(std::isnan(with_nan.stddev)) << context;
      EXPECT_TRUE(std::isnan(with_nan.ci_lo)) << context;
      EXPECT_TRUE(std::isnan(with_nan.ci_hi)) << context;
      const ErrorEstimate nan_stored = from_stored_ranks(1.0, trials, huge);
      EXPECT_TRUE(std::isnan(nan_stored.stddev)) << context;
      EXPECT_EQ(bits(nan_stored.ci_lo), bits(with_nan.ci_lo)) << context;
      EXPECT_EQ(bits(nan_stored.ci_hi), bits(with_nan.ci_hi)) << context;
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
