// Unit tests for the AggregateRegistry: lazy re-scaling, lookups, trial
// replicas, constraint routing, refresh, rollback, per-value degradation,
// live groups and error estimates.
//
// The mutation API requires the engine's serial-phase capability
// (IOLAP_REQUIRES(engine_serial_phase)); tests that publish/refresh enter
// the phase with a ScopedThreadRole, exactly like the engine's apply phase
// does — a no-op at runtime, checked under Clang -Wthread-safety.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "catalog/catalog.h"
#include "iolap/aggregate_registry.h"
#include "plan/plan_builder.h"

namespace iolap {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : functions_(FunctionRegistry::Default()) {
    Table t(Schema({{"k", ValueType::kInt64}, {"x", ValueType::kDouble}}));
    t.AddRow({Value::Int64(1), Value::Double(2)});
    EXPECT_TRUE(catalog_.RegisterTable("t", std::move(t), true).ok());

    // Block 0: per-k SUM (linear in the scale) and AVG (invariant).
    PlanBuilder pb(&catalog_, functions_);
    auto& b = pb.NewBlock("per_k");
    b.Scan("t")
        .GroupBy("k")
        .Agg("sum", b.ColRef("x"), "s")
        .Agg("avg", b.ColRef("x"), "a");
    auto plan = pb.Build();
    EXPECT_TRUE(plan.ok()) << plan.status();
    plan_ = std::make_unique<QueryPlan>(std::move(*plan));
    registry_ = std::make_unique<AggregateRegistry>(plan_.get(), 2.0);
  }

  Row Key(int64_t k) { return {Value::Int64(k)}; }

  // The group ids of LiveGroups(0, batch), in the order returned.
  std::vector<int64_t> Live(int batch) {
    std::vector<int64_t> ids;
    for (const auto& group : registry_->LiveGroups(0, batch)) {
      ids.push_back((*group.key)[0].int64());
    }
    return ids;
  }

  Catalog catalog_;
  std::shared_ptr<FunctionRegistry> functions_;
  std::unique_ptr<QueryPlan> plan_;
  std::unique_ptr<AggregateRegistry> registry_;
};

TEST_F(RegistryTest, LookupMissingGroup) {
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(9)).is_null());
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(9)).IsUnbounded());
}

TEST_F(RegistryTest, KeyColumnsResolveToKey) {
  EXPECT_EQ(registry_->Lookup(0, 0, Key(3)).int64(), 3);
  EXPECT_DOUBLE_EQ(registry_->LookupRange(0, 0, Key(3)).lo, 3.0);
}

TEST_F(RegistryTest, LinearAggregateRescalesLazily) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 4.0);
  // Unscaled sum 10, avg 5.
  auto result = registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                   {{9, 10, 11}, {4, 5, 6}}, true);
  EXPECT_TRUE(result.ok);
  // col 1 = sum (linear): scaled x4; col 2 = avg (invariant).
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(1)).AsDouble(), 40.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 2, Key(1)).AsDouble(), 5.0);
  // Trials scale the same way.
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(1), 0).AsDouble(), 36.0);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 2, Key(1), 2).AsDouble(), 6.0);
  // A new scale changes lookups without republication.
  registry_->SetBlockScale(0, 2.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(1)).AsDouble(), 20.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 2, Key(1)).AsDouble(), 5.0);
}

TEST_F(RegistryTest, TrialOutOfRangeFallsBackToMain) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                 {{}, {}}, false)
                  .ok);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(1), 7).AsDouble(), 10.0);
}

TEST_F(RegistryTest, RefreshChecksUnderNewScale) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 2.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                 {{9, 10, 11}, {5, 5, 5}}, true)
                  .ok);
  // A pruning decision bounds the scaled sum from above at 50.
  registry_->RequireUpper(0, 1, Key(1), 50.0);
  // Scale 4 pushes the scaled envelope to [36, 44]: still fine.
  registry_->SetBlockScale(0, 4.0);
  EXPECT_TRUE(registry_->Refresh(0, Key(1), 1, true).ok);
  // Scale 6 -> scaled max 66 > 50: integrity failure.
  registry_->SetBlockScale(0, 6.0);
  const auto fail = registry_->Refresh(0, Key(1), 2, true);
  EXPECT_FALSE(fail.ok);
}

TEST_F(RegistryTest, RefreshOnMissingGroupReportsMissing) {
  ScopedThreadRole serial(engine_serial_phase);
  const auto result = registry_->Refresh(0, Key(42), 0, true);
  EXPECT_TRUE(result.missing);
}

TEST_F(RegistryTest, ConstraintsGateFailuresAndRangesNarrow) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(10), Value::Double(5)},
                                 {{9, 10, 11}, {5, 5, 5}}, true)
                  .ok);
  // Without constraints, wild movement is re-based silently.
  ASSERT_TRUE(registry_->Publish(0, Key(1), 1, {Value::Double(100), Value::Double(5)},
                                 {{90, 100, 110}, {5, 5, 5}}, true)
                  .ok);
  // Constrain, then violate.
  registry_->RequireUpper(0, 1, Key(1), 120.0);
  const auto fail = registry_->Publish(0, Key(1), 2,
                                       {Value::Double(200), Value::Double(5)},
                                       {{190, 200, 210}, {5, 5, 5}}, true);
  EXPECT_FALSE(fail.ok);
}

TEST_F(RegistryTest, RepeatedFailuresDisableTheRange) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(registry_->Publish(0, Key(1), 0,
                                   {Value::Double(10), Value::Double(5)},
                                   {{10}, {5}}, true)
                    .ok);
    registry_->RequireUpper(0, 1, Key(1), 15.0);
    const auto fail = registry_->Publish(
        0, Key(1), 1, {Value::Double(30), Value::Double(5)}, {{30}, {5}}, true);
    EXPECT_FALSE(fail.ok) << "round " << round;
    registry_->RollbackTo(0, 1);
  }
  // Third strike: the range is permanently unbounded and can't fail.
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(1)).IsUnbounded());
  ASSERT_TRUE(registry_->Publish(0, Key(1), 1,
                                 {Value::Double(1000), Value::Double(5)},
                                 {{1000}, {5}}, true)
                  .ok);
}

TEST_F(RegistryTest, RollbackErasesYoungGroups) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(1), Value::Double(1)},
                                 {{1}, {1}}, true)
                  .ok);
  ASSERT_TRUE(registry_->Publish(0, Key(2), 3, {Value::Double(2), Value::Double(2)},
                                 {{2}, {2}}, true)
                  .ok);
  EXPECT_EQ(registry_->GroupCount(0), 2u);
  registry_->RollbackTo(1, 0);
  EXPECT_EQ(registry_->GroupCount(0), 1u);
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(2)).is_null());
  EXPECT_FALSE(registry_->Lookup(0, 1, Key(1)).is_null());
}

// RelationBytes and TotalBytes are running totals; each write path must
// leave them equal to a recount of the byte model by hand: per group, the
// key, the main values and 8 bytes per replica, plus one tracker per
// tracked aggregate and one snapshot per batch it folded.
TEST_F(RegistryTest, RelationBytesAndTotalBytes) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  EXPECT_EQ(registry_->RelationBytes(0), 0u);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0, {Value::Double(1), Value::Double(1)},
                                 {{1, 1}, {1, 1}}, true)
                  .ok);
  EXPECT_GT(registry_->RelationBytes(0), 0u);
  EXPECT_GE(registry_->TotalBytes(), registry_->RelationBytes(0));

  VariationRangeTracker probe(2.0);
  const size_t tracker = probe.ByteSize();
  ASSERT_TRUE(probe.Update(0.0, {}).ok);
  const size_t snapshot = probe.ByteSize() - tracker;
  // Two aggregates per group, all values doubles.
  auto group = [&](int64_t k, size_t replicas) {
    return RowByteSize(Key(k)) + 2 * Value::Double(0).ByteSize() +
           2 * replicas * sizeof(double);
  };
  auto trackers = [&](size_t snapshots) {
    return 2 * (tracker + snapshots * snapshot);
  };
  auto expect_bytes = [&](size_t relation, size_t total, const char* step) {
    EXPECT_EQ(registry_->RelationBytes(0), relation) << step;
    EXPECT_EQ(registry_->TotalBytes(), total) << step;
  };
  expect_bytes(group(1, 2), group(1, 2) + trackers(1), "first publish");

  ASSERT_TRUE(registry_->Publish(0, Key(2), 1, {Value::Double(2), Value::Double(2)},
                                 {{2, 2, 2}, {2, 2, 2}}, true)
                  .ok);
  // Overwrite with more replicas: the old values leave the total.
  ASSERT_TRUE(registry_->Publish(0, Key(1), 1, {Value::Double(3), Value::Double(3)},
                                 {{3, 3, 3}, {3, 3, 3}}, true)
                  .ok);
  expect_bytes(group(1, 3) + group(2, 3),
               group(1, 3) + group(2, 3) + trackers(2) + trackers(1),
               "publish overwrite");

  // Refreshes fold one more snapshot into each tracker of the group.
  ASSERT_TRUE(registry_->Refresh(0, Key(2), 2, true).ok);
  ASSERT_TRUE(registry_->Refresh(0, Key(2), 3, true).ok);
  expect_bytes(group(1, 3) + group(2, 3),
               group(1, 3) + group(2, 3) + trackers(2) + trackers(3),
               "refresh");

  // Rollback to batch 0 erases key 2 (first published at batch 1) and
  // truncates key 1's tracker history to its batch-0 snapshot.
  registry_->RollbackTo(0, 0);
  expect_bytes(group(1, 3), group(1, 3) + trackers(1), "rollback");

  registry_->RollbackTo(-1, 0);
  expect_bytes(0, 0, "full restart");
}

TEST_F(RegistryTest, ConstraintOnMissingOrKeyColumnIsIgnored) {
  ScopedThreadRole serial(engine_serial_phase);
  // Neither call may crash or create entries.
  registry_->RequireUpper(0, 1, Key(77), 1.0);
  registry_->RequireLower(0, 0, Key(1), 1.0);
  registry_->RequireContainment(0, 1, Key(77));
  EXPECT_EQ(registry_->GroupCount(0), 0u);
}

// A batch's live groups are the ones its walk published or refreshed, in
// walk order; a group the walk did not reach (its contributions lapsed)
// keeps its entry but is not live.
TEST_F(RegistryTest, LiveKeysAreTheGroupsTheWalkReached) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  for (int64_t k : {3, 1}) {
    ASSERT_TRUE(registry_->Publish(0, Key(k), 0,
                                   {Value::Double(1), Value::Double(1)},
                                   {{1}, {1}}, true)
                    .ok);
  }
  EXPECT_EQ(Live(0), (std::vector<int64_t>{3, 1}));

  ASSERT_TRUE(registry_->Refresh(0, Key(1), 1, true).ok);
  ASSERT_TRUE(registry_->Publish(0, Key(2), 1,
                                 {Value::Double(2), Value::Double(2)},
                                 {{2}, {2}}, true)
                  .ok);
  EXPECT_EQ(Live(1), (std::vector<int64_t>{1, 2}));
  // Key 3 lapsed: still resolvable, not live. The latest walk is batch 1.
  EXPECT_FALSE(registry_->Lookup(0, 1, Key(3)).is_null());
  EXPECT_EQ(registry_->GroupCount(0), 3u);
  EXPECT_TRUE(Live(0).empty());
  // A walk that reaches no group leaves the batch with none.
  EXPECT_TRUE(Live(2).empty());
}

// A rollback leaves no group live, kept ones included: the replay's walk
// may route differently and reach fewer groups than the failed attempt.
TEST_F(RegistryTest, RollbackClearsLiveness) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0,
                                 {Value::Double(1), Value::Double(1)},
                                 {{1}, {1}}, true)
                  .ok);
  ASSERT_TRUE(registry_->Refresh(0, Key(1), 1, true).ok);
  ASSERT_TRUE(registry_->Publish(0, Key(2), 1,
                                 {Value::Double(2), Value::Double(2)},
                                 {{2}, {2}}, true)
                  .ok);
  ASSERT_EQ(Live(1), (std::vector<int64_t>{1, 2}));

  registry_->RollbackTo(0, 1);
  EXPECT_EQ(registry_->GroupCount(0), 1u);  // key 2 was first published at 1
  EXPECT_TRUE(Live(0).empty());
  EXPECT_TRUE(Live(1).empty());
  // The replay of batch 1 reaches only key 2; kept key 1 stays not live.
  ASSERT_TRUE(registry_->Publish(0, Key(2), 1,
                                 {Value::Double(2), Value::Double(2)},
                                 {{2}, {2}}, true)
                  .ok);
  EXPECT_EQ(Live(1), (std::vector<int64_t>{2}));
}

TEST_F(RegistryTest, PublishReportsCreation) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  auto publish = [&](int batch) {
    return registry_->Publish(0, Key(5), batch,
                              {Value::Double(1), Value::Double(1)}, {{1}, {1}},
                              true);
  };
  EXPECT_TRUE(publish(1).created);
  EXPECT_FALSE(publish(2).created);
  // Rolling back before its first publication erases the entry.
  registry_->RollbackTo(0, 0);
  EXPECT_EQ(registry_->GroupCount(0), 0u);
  EXPECT_TRUE(publish(1).created);
  // A rollback that keeps the entry keeps it known.
  registry_->RollbackTo(1, 0);
  EXPECT_FALSE(publish(2).created);
}

void ExpectSameEstimate(const ErrorEstimate& actual,
                        const ErrorEstimate& expected, const char* what) {
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  EXPECT_EQ(bits(actual.value), bits(expected.value)) << what;
  EXPECT_EQ(bits(actual.stddev), bits(expected.stddev)) << what;
  EXPECT_EQ(bits(actual.rel_stddev), bits(expected.rel_stddev)) << what;
  EXPECT_EQ(bits(actual.ci_lo), bits(expected.ci_lo)) << what;
  EXPECT_EQ(bits(actual.ci_hi), bits(expected.ci_hi)) << what;
}

// Bootstrap: the estimate is EstimateError over the replicas scaled like
// the value (SUM by m_i, AVG not at all).
TEST_F(RegistryTest, EstimateScalesReplicasLikeTheValue) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 4.0);
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0,
                                 {Value::Double(10), Value::Double(5)},
                                 {{9, 10.5, 11, 8}, {4, 5, 6.25, 5}}, true)
                  .ok);
  ExpectSameEstimate(registry_->Estimate(0, 1, Key(1)),
                     EstimateError(40.0, {36, 42, 44, 32}), "sum");
  ExpectSameEstimate(registry_->Estimate(0, 2, Key(1)),
                     EstimateError(5.0, {4, 5, 6.25, 5}), "avg");
  // A missing group estimates its null value as a zero-width band at 0.
  ExpectSameEstimate(registry_->Estimate(0, 1, Key(9)),
                     EstimateError(0.0, {}), "missing");
}

// Analytic: the published closed-form stddev, scaled like the value and
// shrunk by the finite-population correction sqrt(1 - 1/m_i); none
// (negative) gives a zero-width band, and m_i = 1 closes every band.
TEST_F(RegistryTest, AnalyticEstimateAppliesTheFinitePopulationCorrection) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 4.0);
  const std::vector<double> sd = {2.0, -1.0};
  ASSERT_TRUE(registry_->Publish(0, Key(1), 0,
                                 {Value::Double(10), Value::Double(5)},
                                 {{}, {}}, true, &sd)
                  .ok);
  ExpectSameEstimate(registry_->Estimate(0, 1, Key(1)),
                     EstimateFromStddev(40.0, 2.0 * 4.0 * std::sqrt(0.75)),
                     "sum");
  const ErrorEstimate none = registry_->Estimate(0, 2, Key(1));
  EXPECT_EQ(none.value, 5.0);
  EXPECT_EQ(none.stddev, 0.0);
  EXPECT_EQ(none.ci_lo, 5.0);
  EXPECT_EQ(none.ci_hi, 5.0);

  registry_->SetBlockScale(0, 1.0);
  const ErrorEstimate last = registry_->Estimate(0, 1, Key(1));
  EXPECT_EQ(last.value, 10.0);
  EXPECT_EQ(last.stddev, 0.0);
  EXPECT_EQ(last.ci_lo, last.ci_hi);
}

}  // namespace
}  // namespace iolap
