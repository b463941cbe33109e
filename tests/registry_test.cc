// Unit tests for the AggregateRegistry: lazy re-scaling, lookups, trial
// replicas, constraint routing, refresh, rollback and its slots, the lookup
// hint, per-value degradation, live groups and error estimates.
//
// The mutation API requires the engine's serial-phase capability
// (IOLAP_REQUIRES(engine_serial_phase)); tests that publish/refresh enter
// the phase with a ScopedThreadRole, exactly like the engine's apply phase
// does — a no-op at runtime, checked under Clang -Wthread-safety.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "catalog/catalog.h"
#include "common/random.h"
#include "iolap/aggregate_registry.h"
#include "plan/plan_builder.h"

namespace iolap {
namespace {

// The registry's replica count: every published aggregate carries this many.
constexpr int kTrials = 4;

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
    registry_ = std::make_unique<AggregateRegistry>(plan_.get(), 2.0, kTrials);
  }

  Row Key(int64_t k) { return {Value::Int64(k)}; }

  // Publishes group `k` of block 0 at `batch` with the unscaled main values
  // {sum, avg} and their replicas, kTrials each: sum's, then avg's.
  AggregateRegistry::PublishResult Publish(
      int64_t k, int batch, std::vector<Value> main, std::vector<double> trials,
      bool track = true, const double* analytic_sd = nullptr)
      IOLAP_REQUIRES(engine_serial_phase) {
    EXPECT_EQ(main.size(), 2u);
    EXPECT_EQ(trials.size(), 2u * kTrials);
    return registry_->Publish(0, Key(k), batch, main.data(), trials.data(),
                              track, analytic_sd);
  }

  // The slot that holds group `k` of block 0, or -1.
  int SlotOf(int64_t k) {
    for (size_t slot = 0; slot < registry_->GroupCount(0); ++slot) {
      if (registry_->GroupKey(0, static_cast<int>(slot)) == Key(k)) {
        return static_cast<int>(slot);
      }
    }
    return -1;
  }

  // The group ids of LiveGroups(0, batch), in the order returned.
  std::vector<int64_t> Live(int batch) {
    std::vector<int64_t> ids;
    for (int slot : registry_->LiveGroups(0, batch)) {
      ids.push_back(registry_->OutputRow(0, slot)[0].int64());
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
  auto result = Publish(1, 0, {Value::Double(10), Value::Double(5)},
                        {9, 10, 11, 10, 4, 5, 6, 5});
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
  ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(5)},
                      {9, 10, 11, 12, 4, 5, 6, 5}, false)
                  .ok);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(1), kTrials).AsDouble(),
                   10.0);
  Value batched[kTrials + 1];
  registry_->LookupTrials(0, 1, Key(1), kTrials + 1, batched);
  EXPECT_DOUBLE_EQ(batched[kTrials - 1].AsDouble(), 12.0);
  EXPECT_DOUBLE_EQ(batched[kTrials].AsDouble(), 10.0);
}

TEST_F(RegistryTest, RefreshChecksUnderNewScale) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 2.0);
  ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(5)},
                      {9, 10, 11, 10, 5, 5, 5, 5})
                  .ok);
  // A pruning decision bounds the scaled sum from above at 50.
  registry_->RequireUpper(0, 1, Key(1), 50.0);
  // Scale 4 pushes the scaled envelope to [36, 44]: still fine.
  registry_->SetBlockScale(0, 4.0);
  EXPECT_TRUE(registry_->Refresh(0, SlotOf(1), 1, true).ok);
  // Scale 6 -> scaled max 66 > 50: integrity failure.
  registry_->SetBlockScale(0, 6.0);
  const auto fail = registry_->Refresh(0, SlotOf(1), 2, true);
  EXPECT_FALSE(fail.ok);
}

TEST_F(RegistryTest, ConstraintsGateFailuresAndRangesNarrow) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(5)},
                      {9, 10, 11, 10, 5, 5, 5, 5})
                  .ok);
  // Without constraints, wild movement is re-based silently.
  ASSERT_TRUE(Publish(1, 1, {Value::Double(100), Value::Double(5)},
                      {90, 100, 110, 100, 5, 5, 5, 5})
                  .ok);
  // Constrain, then violate.
  registry_->RequireUpper(0, 1, Key(1), 120.0);
  const auto fail = Publish(1, 2, {Value::Double(200), Value::Double(5)},
                            {190, 200, 210, 200, 5, 5, 5, 5});
  EXPECT_FALSE(fail.ok);
}

TEST_F(RegistryTest, RepeatedFailuresDisableTheRange) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(5)},
                        {10, 10, 10, 10, 5, 5, 5, 5})
                    .ok);
    registry_->RequireUpper(0, 1, Key(1), 15.0);
    const auto fail = Publish(1, 1, {Value::Double(30), Value::Double(5)},
                              {30, 30, 30, 30, 5, 5, 5, 5});
    EXPECT_FALSE(fail.ok) << "round " << round;
    registry_->RollbackTo(0, 1);
  }
  // Third strike: the range is permanently unbounded, so nothing new is
  // decided on it and a new obligation does not register...
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(1)).IsUnbounded());
  registry_->RequireUpper(0, 1, Key(1), 5.0);
  ASSERT_TRUE(Publish(1, 1, {Value::Double(12), Value::Double(5)},
                      {12, 12, 12, 12, 5, 5, 5, 5})
                  .ok);
  // ... but the obligation it already carries (at most 15) is still
  // verified, by Publish and by Refresh: the rows decided under it stay
  // decided only while it holds.
  registry_->SetBlockScale(0, 2.0);
  EXPECT_FALSE(registry_->Refresh(0, SlotOf(1), 2, true).ok);
  registry_->RollbackTo(1, 1);
  registry_->SetBlockScale(0, 1.0);
  EXPECT_FALSE(Publish(1, 2, {Value::Double(1000), Value::Double(5)},
                       {1000, 1000, 1000, 1000, 5, 5, 5, 5})
                   .ok);
}

// Slots are numbered in creation order, and a rollback pops exactly the
// ones created after its batch: every survivor keeps its slot, its values
// and its place in the order, and the next group created takes the first
// free slot.
TEST_F(RegistryTest, RollbackErasesYoungGroups) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 2.0);
  const std::vector<std::pair<int64_t, int>> groups = {
      {7, 0}, {3, 1}, {5, 2}, {9, 3}};  // (key, batch created)
  for (size_t i = 0; i < groups.size(); ++i) {
    const auto [k, batch] = groups[i];
    const double v = static_cast<double>(k);
    const auto result = Publish(k, batch, {Value::Double(v), Value::Double(v)},
                                {v, v, v, v, v, v, v, v});
    ASSERT_TRUE(result.created);
    EXPECT_EQ(result.slot, static_cast<int>(i));
  }
  const Row row7 = registry_->OutputRow(0, 0);
  const Row row3 = registry_->OutputRow(0, 1);
  EXPECT_EQ(row7, (Row{Value::Int64(7), Value::Double(14), Value::Double(7)}));

  registry_->RollbackTo(1, 0);
  EXPECT_EQ(registry_->GroupCount(0), 2u);
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(5)).is_null());
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(9)).is_null());
  EXPECT_EQ(registry_->OutputRow(0, 0), row7);
  EXPECT_EQ(registry_->OutputRow(0, 1), row3);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(3), 2).AsDouble(), 6.0);

  // The replay's walk reaches the survivors in creation order, and their
  // republication finds their slots.
  ASSERT_TRUE(registry_->Refresh(0, SlotOf(7), 2, true).ok);
  const auto again = Publish(3, 2, {Value::Double(4), Value::Double(4)},
                             {4, 4, 4, 4, 4, 4, 4, 4});
  EXPECT_FALSE(again.created);
  EXPECT_EQ(again.slot, 1);
  const auto fresh = Publish(11, 2, {Value::Double(1), Value::Double(1)},
                             {1, 1, 1, 1, 1, 1, 1, 1});
  EXPECT_TRUE(fresh.created);
  EXPECT_EQ(fresh.slot, 2);
  EXPECT_EQ(registry_->LiveGroups(0, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Live(2), (std::vector<int64_t>{7, 3, 11}));
}

// RelationBytes and TotalBytes are running totals; each write path must
// leave them equal to a recount of the byte model by hand: per group, the
// key, the main values and 8 bytes per replica, plus one tracker per
// tracked aggregate and one snapshot per batch it folded.
TEST_F(RegistryTest, RelationBytesAndTotalBytes) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  EXPECT_EQ(registry_->RelationBytes(0), 0u);
  ASSERT_TRUE(Publish(1, 0, {Value::Double(1), Value::Double(1)},
                      {1, 1, 1, 1, 1, 1, 1, 1})
                  .ok);
  EXPECT_GT(registry_->RelationBytes(0), 0u);
  EXPECT_GE(registry_->TotalBytes(), registry_->RelationBytes(0));

  VariationRangeTracker probe(2.0);
  const size_t tracker = probe.ByteSize();
  ASSERT_TRUE(probe.Update(0.0, {}).ok);
  const size_t snapshot = probe.ByteSize() - tracker;
  // Two aggregates per group, each with kTrials replicas.
  const size_t dbl = Value::Double(0).ByteSize();
  auto group = [&](int64_t k, size_t main_bytes) {
    return RowByteSize(Key(k)) + main_bytes + 2 * kTrials * sizeof(double);
  };
  auto trackers = [&](size_t snapshots) {
    return 2 * (tracker + snapshots * snapshot);
  };
  auto expect_bytes = [&](size_t relation, size_t total, const char* step) {
    EXPECT_EQ(registry_->RelationBytes(0), relation) << step;
    EXPECT_EQ(registry_->TotalBytes(), total) << step;
  };
  expect_bytes(group(1, 2 * dbl), group(1, 2 * dbl) + trackers(1),
               "first publish");

  ASSERT_TRUE(Publish(2, 1, {Value::Double(2), Value::Double(2)},
                      {2, 2, 2, 2, 2, 2, 2, 2})
                  .ok);
  // Overwrite with a null sum: the old value leaves the total.
  const size_t null_and_dbl = Value::Null().ByteSize() + dbl;
  ASSERT_NE(null_and_dbl, 2 * dbl);
  ASSERT_TRUE(Publish(1, 1, {Value::Null(), Value::Double(3)},
                      {3, 3, 3, 3, 3, 3, 3, 3})
                  .ok);
  expect_bytes(group(1, null_and_dbl) + group(2, 2 * dbl),
               group(1, null_and_dbl) + group(2, 2 * dbl) + trackers(2) +
                   trackers(1),
               "publish overwrite");

  // Refreshes fold one more snapshot into each tracker of the group.
  ASSERT_TRUE(registry_->Refresh(0, SlotOf(2), 2, true).ok);
  ASSERT_TRUE(registry_->Refresh(0, SlotOf(2), 3, true).ok);
  expect_bytes(group(1, null_and_dbl) + group(2, 2 * dbl),
               group(1, null_and_dbl) + group(2, 2 * dbl) + trackers(2) +
                   trackers(3),
               "refresh");

  // Rollback to batch 0 pops key 2 (first published at batch 1) and
  // truncates key 1's tracker history to its batch-0 snapshot.
  registry_->RollbackTo(0, 0);
  expect_bytes(group(1, null_and_dbl), group(1, null_and_dbl) + trackers(1),
               "rollback");

  registry_->RollbackTo(-1, 0);
  expect_bytes(0, 0, "full restart");
}

TEST_F(RegistryTest, ConstraintOnMissingOrKeyColumnIsIgnored) {
  ScopedThreadRole serial(engine_serial_phase);
  // Neither call may crash or create groups.
  registry_->RequireUpper(0, 1, Key(77), 1.0);
  registry_->RequireLower(0, 0, Key(1), 1.0);
  registry_->RequireContainment(0, 1, Key(77));
  EXPECT_EQ(registry_->GroupCount(0), 0u);
}

// A batch's live groups are the ones its walk published or refreshed, in
// walk order; a group the walk did not reach (its contributions lapsed)
// keeps its slot but is not live.
TEST_F(RegistryTest, LiveKeysAreTheGroupsTheWalkReached) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  for (int64_t k : {3, 1}) {
    ASSERT_TRUE(Publish(k, 0, {Value::Double(1), Value::Double(1)},
                        {1, 1, 1, 1, 1, 1, 1, 1})
                    .ok);
  }
  EXPECT_EQ(Live(0), (std::vector<int64_t>{3, 1}));

  ASSERT_TRUE(registry_->Refresh(0, SlotOf(1), 1, true).ok);
  ASSERT_TRUE(Publish(2, 1, {Value::Double(2), Value::Double(2)},
                      {2, 2, 2, 2, 2, 2, 2, 2})
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
  ASSERT_TRUE(Publish(1, 0, {Value::Double(1), Value::Double(1)},
                      {1, 1, 1, 1, 1, 1, 1, 1})
                  .ok);
  ASSERT_TRUE(registry_->Refresh(0, SlotOf(1), 1, true).ok);
  ASSERT_TRUE(Publish(2, 1, {Value::Double(2), Value::Double(2)},
                      {2, 2, 2, 2, 2, 2, 2, 2})
                  .ok);
  ASSERT_EQ(Live(1), (std::vector<int64_t>{1, 2}));

  registry_->RollbackTo(0, 1);
  EXPECT_EQ(registry_->GroupCount(0), 1u);  // key 2 was first published at 1
  EXPECT_TRUE(Live(0).empty());
  EXPECT_TRUE(Live(1).empty());
  // The replay of batch 1 reaches only key 2; kept key 1 stays not live.
  ASSERT_TRUE(Publish(2, 1, {Value::Double(2), Value::Double(2)},
                      {2, 2, 2, 2, 2, 2, 2, 2})
                  .ok);
  EXPECT_EQ(Live(1), (std::vector<int64_t>{2}));
}

TEST_F(RegistryTest, PublishReportsCreation) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  auto publish = [&](int batch) {
    engine_serial_phase.AssertHeld();  // called only from this test's body
    return Publish(5, batch, {Value::Double(1), Value::Double(1)},
                   {1, 1, 1, 1, 1, 1, 1, 1});
  };
  EXPECT_TRUE(publish(1).created);
  EXPECT_FALSE(publish(2).created);
  // Rolling back before its first publication forgets the group.
  registry_->RollbackTo(0, 0);
  EXPECT_EQ(registry_->GroupCount(0), 0u);
  EXPECT_TRUE(publish(1).created);
  // A rollback that keeps the group keeps it known.
  registry_->RollbackTo(1, 0);
  EXPECT_FALSE(publish(2).created);
}

// The thread_local lookup hint remembers a (relation, slot). After a
// rollback pops a group and a new group takes its slot, the hint must
// resolve neither the old key to the new group nor the new key to nothing.
TEST_F(RegistryTest, LookupHintFollowsTheSlotsKey) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(1)},
                      {10, 10, 10, 10, 1, 1, 1, 1})
                  .ok);
  const auto a = Publish(2, 1, {Value::Double(20), Value::Double(2)},
                         {20, 20, 20, 20, 2, 2, 2, 2});
  ASSERT_TRUE(a.created);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(2)).AsDouble(), 20.0);

  registry_->RollbackTo(0, 0);
  const auto b = Publish(3, 1, {Value::Double(30), Value::Double(3)},
                         {30, 30, 30, 30, 3, 3, 3, 3});
  ASSERT_TRUE(b.created);
  ASSERT_EQ(b.slot, a.slot);
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(2)).is_null());
  EXPECT_TRUE(registry_->LookupTrial(0, 1, Key(2), 0).is_null());
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(2)).IsUnbounded());
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(3)).AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(1)).AsDouble(), 10.0);
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
  const auto result = Publish(1, 0, {Value::Double(10), Value::Double(5)},
                              {9, 10.5, 11, 8, 4, 5, 6.25, 5});
  ASSERT_TRUE(result.ok);
  ExpectSameEstimate(registry_->Estimate(0, 1, Key(1)),
                     EstimateError(40.0, {36, 42, 44, 32}), "sum");
  ExpectSameEstimate(registry_->Estimate(0, 2, Key(1)),
                     EstimateError(5.0, {4, 5, 6.25, 5}), "avg");
  ExpectSameEstimate(registry_->Estimate(0, 1, result.slot),
                     EstimateError(40.0, {36, 42, 44, 32}), "sum by slot");
  // A missing group estimates its null value as a zero-width band at 0.
  ExpectSameEstimate(registry_->Estimate(0, 1, Key(9)),
                     EstimateError(0.0, {}), "missing");
}

// A block that keeps its cells' CI ranks estimates a cell from the stored
// ranks and one stddev pass; one that does not ranks the replicas on every
// call. Both must give EstimateError over the stored replicas scaled like
// the value, bit for bit, at every m_i: ties, signed zeros, scales whose
// products overflow, and a NaN replica included.
TEST_F(RegistryTest, EstimateFromStoredRanksMatchesEstimateError) {
  ScopedThreadRole serial(engine_serial_phase);
  constexpr int kMany = 60;
  constexpr int kGroups = 12;
  const double tied[] = {-3.0, -0.0, 0.0, 2.5, 1e10};
  for (bool keep_ranks : {false, true}) {
    AggregateRegistry registry(plan_.get(), 2.0, kMany);
    if (keep_ranks) registry.KeepRanks(0);
    Rng rng(11);
    std::vector<std::vector<double>> replicas;  // per group: sum's, avg's
    registry.SetBlockScale(0, 1.0);
    for (int64_t k = 0; k < kGroups; ++k) {
      std::vector<double> trials(2 * kMany);
      for (double& x : trials) {
        x = k % 3 == 0 ? tied[rng.NextBounded(5)]
                       : rng.NextDouble() * 200.0 - 100.0;
      }
      if (k == 7) trials[5] = std::numeric_limits<double>::quiet_NaN();
      const Value main[] = {Value::Double(10.0 + k), Value::Double(-0.5 * k)};
      ASSERT_EQ(registry.Publish(0, Key(k), 0, main, trials.data(), false).slot,
                k);
      replicas.push_back(std::move(trials));
    }
    for (double m : {1.0, 1.5, 4.0, 37.25, 1e300}) {
      registry.SetBlockScale(0, m);
      for (int slot = 0; slot < kGroups; ++slot) {
        for (int col : {1, 2}) {
          const size_t a = static_cast<size_t>(col - 1);
          const double s = a == 0 ? m : 1.0;  // sum scales, avg does not
          std::vector<double> scaled(
              replicas[slot].begin() + static_cast<std::ptrdiff_t>(a * kMany),
              replicas[slot].begin() +
                  static_cast<std::ptrdiff_t>((a + 1) * kMany));
          for (double& x : scaled) x *= s;
          const double value = registry.Lookup(0, col, Key(slot)).AsDouble();
          const std::string what = std::string(keep_ranks ? "ranks" : "none") +
                                   " m=" + std::to_string(m) +
                                   " slot=" + std::to_string(slot) +
                                   " col=" + std::to_string(col);
          ExpectSameEstimate(registry.Estimate(0, col, slot),
                             EstimateError(value, scaled), what.c_str());
        }
      }
    }
  }
}

// Refresh by slot re-checks a group's stored envelope under the new scale
// and marks it live, which is what republishing its unchanged values does
// (and what Refresh by key did): the same verdicts, live list, ranges and
// bytes, a failing obligation included.
TEST_F(RegistryTest, RefreshBySlotMatchesRepublication) {
  ScopedThreadRole serial(engine_serial_phase);
  AggregateRegistry republished(plan_.get(), 2.0, kTrials);
  const std::vector<double> trials = {9, 10, 11, 10, 5, 5, 5, 5};
  const Value main[] = {Value::Double(10), Value::Double(5)};
  for (AggregateRegistry* r : {registry_.get(), &republished}) {
    r->SetBlockScale(0, 2.0);
    for (int64_t k : {4, 8}) {
      ASSERT_TRUE(r->Publish(0, Key(k), 0, main, trials.data(), true).ok);
    }
    r->RequireUpper(0, 1, Key(8), 50.0);
  }
  bool failed = false;
  for (int batch = 1; batch <= 3; ++batch) {
    // m_i 3.5, 5, 6.5: the scaled replica maximum, 11 m_i, passes 50 at
    // batch 2.
    const double m = 2.0 + 1.5 * batch;
    registry_->SetBlockScale(0, m);
    republished.SetBlockScale(0, m);
    for (int64_t k : {8, 4}) {
      const auto by_slot = registry_->Refresh(0, SlotOf(k), batch, true);
      const auto again =
          republished.Publish(0, Key(k), batch, main, trials.data(), true);
      EXPECT_EQ(by_slot.ok, again.ok) << "batch " << batch << " key " << k;
      EXPECT_EQ(by_slot.rollback_to, again.rollback_to);
      failed = failed || !by_slot.ok;
    }
    EXPECT_EQ(registry_->LiveGroups(0, batch), republished.LiveGroups(0, batch));
    EXPECT_EQ(Live(batch), (std::vector<int64_t>{8, 4}));
    EXPECT_EQ(registry_->TotalBytes(), republished.TotalBytes());
    for (int64_t k : {4, 8}) {
      const Interval got = registry_->LookupRange(0, 1, Key(k));
      const Interval want = republished.LookupRange(0, 1, Key(k));
      EXPECT_EQ(got.lo, want.lo) << "batch " << batch << " key " << k;
      EXPECT_EQ(got.hi, want.hi) << "batch " << batch << " key " << k;
    }
  }
  EXPECT_TRUE(failed);
}

// A snapshot consumer primes the lookup hint with the slot its feed row
// came from. The hint only saves the probe: a slot that holds another key,
// one past the relation's end, or one a rollback handed to another group
// falls back to the key, and a missing key stays missing.
TEST_F(RegistryTest, PrimedHintOnAnotherKeyFallsBackToTheKey) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 1.0);
  ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(1)},
                      {10, 11, 9, 10, 1, 1, 1, 1})
                  .ok);
  const auto two = Publish(2, 1, {Value::Double(20), Value::Double(2)},
                           {20, 21, 19, 20, 2, 2, 2, 2});
  ASSERT_EQ(two.slot, 1);

  AggregateRegistry::PrimeLookupHint(0, 1);  // holds key 2
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(1)).AsDouble(), 10.0);
  AggregateRegistry::PrimeLookupHint(0, 1);
  EXPECT_DOUBLE_EQ(registry_->LookupTrial(0, 1, Key(1), 1).AsDouble(), 11.0);
  AggregateRegistry::PrimeLookupHint(0, 1);
  ExpectSameEstimate(registry_->Estimate(0, 1, Key(1)),
                     registry_->Estimate(0, 1, 0), "estimate by key");
  AggregateRegistry::PrimeLookupHint(0, 1);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(2)).AsDouble(), 20.0);
  AggregateRegistry::PrimeLookupHint(0, 7);  // past the end
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(2)).AsDouble(), 20.0);
  AggregateRegistry::PrimeLookupHint(0, 0);
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(9)).is_null());
  AggregateRegistry::PrimeLookupHint(0, 0);
  EXPECT_TRUE(registry_->LookupRange(0, 1, Key(9)).IsUnbounded());

  // A rollback pops key 2, and key 3 takes its slot.
  registry_->RollbackTo(0, 0);
  ASSERT_EQ(Publish(3, 1, {Value::Double(30), Value::Double(3)},
                    {30, 30, 30, 30, 3, 3, 3, 3})
                .slot,
            1);
  AggregateRegistry::PrimeLookupHint(0, 1);
  EXPECT_TRUE(registry_->Lookup(0, 1, Key(2)).is_null());
  AggregateRegistry::PrimeLookupHint(0, 1);
  EXPECT_DOUBLE_EQ(registry_->Lookup(0, 1, Key(3)).AsDouble(), 30.0);
}

// Analytic: the published closed-form stddev, scaled like the value and
// shrunk by the finite-population correction sqrt(1 - 1/m_i); none
// (negative) gives a zero-width band, and m_i = 1 closes every band.
TEST_F(RegistryTest, AnalyticEstimateAppliesTheFinitePopulationCorrection) {
  ScopedThreadRole serial(engine_serial_phase);
  registry_->SetBlockScale(0, 4.0);
  const double sd[] = {2.0, -1.0};
  ASSERT_TRUE(Publish(1, 0, {Value::Double(10), Value::Double(5)},
                      {0, 0, 0, 0, 0, 0, 0, 0}, true, sd)
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
