// Chaos tests of failure recovery under deterministic fault injection
// (docs/INTERNALS.md §9). Two tiers:
//
//  * Bit-identity tier — schedules made only of *injected* (spurious)
//    faults, with fire counts below the recovery-storm staircase. The
//    controller replays injected recoveries with unfrozen variation ranges,
//    so the final state — every partial result, every error estimate, every
//    counter the engine derives from data — must be bit-identical to the
//    fault-free run, at 0 and at 4 worker threads.
//
//  * Degraded tier — natural-typed faults and recovery storms. These freeze
//    ranges on replay or walk down the degradation staircase, which legally
//    changes routing (and hence floating-point association), so the final
//    result is compared against the fault-free run with numeric tolerance
//    and the recovery metrics are asserted instead.
//
// Schedules are seed-reproducible: the randomized tier derives every spec
// from IOLAP_CHAOS_SEED (default fixed), and failure output prints the spec
// so a failing schedule replays exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "catalog/csv.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/random.h"
#include "iolap/query_controller.h"
#include "iolap/session.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("IOLAP_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 20260805;
}

std::shared_ptr<FunctionRegistry> ChaosFunctions() {
  static std::shared_ptr<FunctionRegistry> functions = [] {
    auto f = FunctionRegistry::Default();
    RegisterConvivaUdfs(f.get());
    return f;
  }();
  return functions;
}

// Catalogs are cached per (workload, streamed table): generation dominates
// the runtime of a small chaos run.
std::shared_ptr<Catalog> TpchChaosCatalog(const std::string& streamed) {
  static std::map<std::string, std::shared_ptr<Catalog>> cache;
  auto it = cache.find(streamed);
  if (it != cache.end()) return it->second;
  TpchConfig config;
  auto catalog = MakeTpchCatalog(config.Scaled(0.01), streamed);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  return cache.emplace(streamed, *catalog).first->second;
}

std::shared_ptr<Catalog> ConvivaChaosCatalog() {
  static std::shared_ptr<Catalog> catalog = [] {
    ConvivaConfig config;
    auto made = MakeConvivaCatalog(config.Scaled(0.01));
    EXPECT_TRUE(made.ok()) << made.status();
    return *made;
  }();
  return catalog;
}

struct ChaosOutcome {
  std::vector<Table> partial_rows;
  std::vector<std::vector<std::vector<ErrorEstimate>>> estimates;
  QueryMetrics metrics;
  bool ok = false;
};

ChaosOutcome RunChaos(std::shared_ptr<Catalog> catalog, const std::string& sql,
                      const std::string& failpoints, size_t num_threads,
                      int num_batches = 4, int num_trials = 24) {
  EngineOptions options;
  options.num_trials = num_trials;
  options.num_batches = num_batches;
  options.slack = 2.0;
  options.seed = 99;
  options.num_threads = num_threads;
  options.failpoints = failpoints;
  Session session(catalog.get(), options, ChaosFunctions());
  ChaosOutcome outcome;
  auto compiled = session.Sql(sql);
  EXPECT_TRUE(compiled.ok()) << compiled.status() << "\n  sql: " << sql;
  if (!compiled.ok()) return outcome;
  Status run_status = (*compiled)->Run([&](const PartialResult& partial) {
    outcome.partial_rows.push_back(partial.rows);
    outcome.estimates.push_back(partial.estimates);
    return BatchAction::kContinue;
  });
  EXPECT_TRUE(run_status.ok()) << run_status << "\n  spec: " << failpoints;
  outcome.metrics = (*compiled)->metrics();
  outcome.ok = run_status.ok();
  return outcome;
}

// Exact comparison: every partial result bit for bit.
void ExpectBitIdentical(const ChaosOutcome& faulty, const ChaosOutcome& clean,
                        const std::string& context) {
  ASSERT_TRUE(faulty.ok && clean.ok) << context;
  ASSERT_EQ(faulty.partial_rows.size(), clean.partial_rows.size()) << context;
  for (size_t p = 0; p < clean.partial_rows.size(); ++p) {
    const Table& tf = faulty.partial_rows[p];
    const Table& tc = clean.partial_rows[p];
    ASSERT_EQ(tf.num_rows(), tc.num_rows()) << context << " batch " << p;
    for (size_t r = 0; r < tf.num_rows(); ++r) {
      ASSERT_EQ(tf.row(r).size(), tc.row(r).size()) << context;
      for (size_t c = 0; c < tf.row(r).size(); ++c) {
        EXPECT_TRUE(tf.row(r)[c].Equals(tc.row(r)[c]))
            << context << " batch " << p << " row " << r << " col " << c
            << ": " << tf.row(r)[c].ToString() << " vs "
            << tc.row(r)[c].ToString();
      }
    }
    ASSERT_EQ(faulty.estimates[p].size(), clean.estimates[p].size()) << context;
    for (size_t r = 0; r < clean.estimates[p].size(); ++r) {
      ASSERT_EQ(faulty.estimates[p][r].size(), clean.estimates[p][r].size())
          << context;
      for (size_t k = 0; k < clean.estimates[p][r].size(); ++k) {
        EXPECT_EQ(faulty.estimates[p][r][k].value,
                  clean.estimates[p][r][k].value)
            << context << " batch " << p;
        EXPECT_EQ(faulty.estimates[p][r][k].stddev,
                  clean.estimates[p][r][k].stddev)
            << context << " batch " << p;
      }
    }
  }
}

// Tolerance comparison of the *final* batch only (degraded tier: both runs
// compute the same Q(D_n) = exact answer, via different routings).
void ExpectFinalClose(const ChaosOutcome& faulty, const ChaosOutcome& clean,
                      const std::string& context) {
  ASSERT_TRUE(faulty.ok && clean.ok) << context;
  ASSERT_FALSE(faulty.partial_rows.empty()) << context;
  ASSERT_FALSE(clean.partial_rows.empty()) << context;
  const Table& tf = faulty.partial_rows.back();
  const Table& tc = clean.partial_rows.back();
  ASSERT_EQ(tf.num_rows(), tc.num_rows()) << context;
  for (size_t r = 0; r < tf.num_rows(); ++r) {
    ASSERT_EQ(tf.row(r).size(), tc.row(r).size()) << context;
    for (size_t c = 0; c < tf.row(r).size(); ++c) {
      const Value& a = tf.row(r)[c];
      const Value& e = tc.row(r)[c];
      if (a.is_numeric() && e.is_numeric()) {
        const double tol = 1e-7 * std::max(1.0, std::fabs(e.AsDouble()));
        EXPECT_NEAR(a.AsDouble(), e.AsDouble(), tol)
            << context << " row " << r << " col " << c;
      } else {
        EXPECT_TRUE(a.Equals(e)) << context << " row " << r << " col " << c;
      }
    }
  }
}

struct ChaosCase {
  std::string name;
  std::shared_ptr<Catalog> catalog;
  std::string sql;
  bool nested = false;
};

std::vector<ChaosCase> AllWorkloadCases() {
  std::vector<ChaosCase> cases;
  for (const BenchQuery& q : TpchQueries()) {
    cases.push_back(
        {"tpch_" + q.id, TpchChaosCatalog(q.streamed_table), q.sql, q.nested});
  }
  for (const BenchQuery& q : ConvivaQueries()) {
    cases.push_back(
        {"conviva_" + q.id, ConvivaChaosCatalog(), q.sql, q.nested});
  }
  return cases;
}

// Two representative nested queries (tracked blocks + non-deterministic
// sets) used by the directed schedule matrix.
std::vector<ChaosCase> NestedCases() {
  std::vector<ChaosCase> nested;
  for (ChaosCase& c : AllWorkloadCases()) {
    if (!c.nested) continue;
    if (!nested.empty() && nested.back().name[0] == c.name[0]) continue;
    nested.push_back(c);  // first nested query of each workload
    if (nested.size() == 2) break;
  }
  return nested;
}

// ---------------------------------------------------------------------------
// Bit-identity tier
// ---------------------------------------------------------------------------

// Every workload query under a randomized injected-only multi-fault
// schedule: the controller-batch fault guarantees at least one recovery on
// every query; the extra faults land wherever the seed sends them. Final
// (and every partial) result must be bit-identical to the fault-free run at
// both thread counts.
TEST(ChaosTest, AllWorkloadQueriesUnderRandomizedSchedule) {
  const uint64_t seed = ChaosSeed();
  const int num_batches = 4;
  size_t index = 0;
  for (const ChaosCase& c : AllWorkloadCases()) {
    Rng rng(Mix64(seed) ^ index++);
    // Always at least one guaranteed injected recovery; more faults with
    // random placement on top.
    const int fault_batch =
        1 + static_cast<int>(rng.NextBounded(num_batches - 1));
    const int depth = 1 + static_cast<int>(rng.NextBounded(3));
    std::string spec = "controller-batch-fault=at:" +
                       std::to_string(fault_batch) +
                       ",times:1,arg:" + std::to_string(depth);
    if (rng.NextBounded(2) == 0) {
      spec += ";exec-integrity-verdict=at:" +
              std::to_string(rng.NextBounded(num_batches)) + ",times:2,arg:" +
              std::to_string(1 + rng.NextBounded(2));
    }
    if (rng.NextBounded(2) == 0) {
      spec += ";registry-publish-fault=at:" +
              std::to_string(rng.NextBounded(num_batches)) + ",times:1";
    }
    if (rng.NextBounded(2) == 0) {
      spec += ";checkpoint-restore-fault=at:" +
              std::to_string(rng.NextBounded(num_batches)) + ",times:1";
    }
    if (rng.NextBounded(2) == 0) {
      spec += ";pool-task-fault=prob:0.2:" + std::to_string(seed & 0xffff);
    }
    SCOPED_TRACE(c.name + " seed=" + std::to_string(seed) +
                 " spec=" + spec);

    const ChaosOutcome clean = RunChaos(c.catalog, c.sql, "", 0, num_batches);
    const ChaosOutcome faulty0 =
        RunChaos(c.catalog, c.sql, spec, 0, num_batches);
    const ChaosOutcome faulty4 =
        RunChaos(c.catalog, c.sql, spec, 4, num_batches);

    ExpectBitIdentical(faulty0, clean, c.name + " threads=0");
    ExpectBitIdentical(faulty4, clean, c.name + " threads=4");
    // The guaranteed fault is visible in the recovery metrics, on top of
    // whatever (deterministic) natural recoveries the baseline already has.
    EXPECT_GE(faulty0.metrics.TotalFailureRecoveries(),
              clean.metrics.TotalFailureRecoveries() + 1)
        << c.name;
    EXPECT_GE(faulty0.metrics.TotalInjectedFaults(), 1) << c.name;
    EXPECT_GE(faulty0.metrics.MaxRollbackDepth(), 1) << c.name;
    EXPECT_EQ(faulty0.metrics.DegradedMode(), clean.metrics.DegradedMode())
        << c.name;
  }
}

// Directed schedule matrix on the nested representatives: named fault
// shapes, each asserting bit-identity at 0 and 4 threads plus the metric
// that proves the fault actually happened.
TEST(ChaosTest, DirectedInjectedSchedules) {
  struct Schedule {
    std::string name;
    std::string spec;
    // Minimum values the recovery metrics must show (0 = unchecked).
    int min_recoveries = 0;
    int min_rollback_depth = 0;
    int min_full_restarts = 0;
    int min_corrupt_checkpoints = 0;
  };
  const std::vector<Schedule> schedules = {
      {"shallow-verdict", "exec-integrity-verdict=at:3,times:1,arg:1", 1, 1},
      {"deep-verdict", "exec-integrity-verdict=at:4,times:1,arg:3", 1, 3},
      {"publish-fault", "registry-publish-fault=at:3,times:1,arg:2", 1, 2},
      {"controller-restart", "controller-batch-fault=at:3,times:1,arg:10", 1,
       4, 1},
      {"corrupt-capture",
       "checkpoint-capture-corrupt=at:2,times:1;"
       "controller-batch-fault=at:3,times:1,arg:1",
       1, 2, 0, 1},
      {"restore-fault",
       "checkpoint-restore-fault=at:2,times:1;"
       "controller-batch-fault=at:3,times:1,arg:1",
       1, 2, 0, 1},
      // times:5 bounds the storm; a single recovery pass can consume one
      // fire per tracked block, so the recovery count floor is times /
      // (max tracked blocks per query) = 2.
      {"bounded-storm", "exec-integrity-verdict=at:2,times:5,arg:1", 2, 1},
      {"pool-crashes", "pool-task-fault=every:7"},
      {"multi-fault",
       "exec-integrity-verdict=at:2,times:1,arg:2;"
       "registry-publish-fault=at:4,times:1,arg:1;"
       "pool-task-fault=prob:0.25:3",
       2, 2},
  };
  const int num_batches = 6;
  for (const ChaosCase& c : NestedCases()) {
    const ChaosOutcome clean =
        RunChaos(c.catalog, c.sql, "", 0, num_batches, 10);
    for (const Schedule& s : schedules) {
      SCOPED_TRACE(c.name + " schedule=" + s.name + " spec=" + s.spec);
      const ChaosOutcome faulty0 =
          RunChaos(c.catalog, c.sql, s.spec, 0, num_batches, 10);
      const ChaosOutcome faulty4 =
          RunChaos(c.catalog, c.sql, s.spec, 4, num_batches, 10);
      ExpectBitIdentical(faulty0, clean, c.name + "/" + s.name + " t0");
      ExpectBitIdentical(faulty4, clean, c.name + "/" + s.name + " t4");
      EXPECT_GE(faulty0.metrics.TotalFailureRecoveries(),
                clean.metrics.TotalFailureRecoveries() + s.min_recoveries);
      EXPECT_GE(faulty0.metrics.MaxRollbackDepth(), s.min_rollback_depth);
      EXPECT_GE(faulty0.metrics.TotalFullRestarts(), s.min_full_restarts);
      EXPECT_GE(faulty0.metrics.TotalCorruptCheckpoints(),
                s.min_corrupt_checkpoints);
      // Injected-only schedules must not freeze any replayed ranges beyond
      // the baseline's (deterministic) natural recoveries, and must never
      // reach the degradation staircase.
      EXPECT_EQ(faulty0.metrics.TotalFrozenReplayBatches(),
                clean.metrics.TotalFrozenReplayBatches());
      EXPECT_EQ(faulty0.metrics.DegradedMode(), clean.metrics.DegradedMode());
      EXPECT_EQ(faulty0.metrics.TotalRecoveriesExhausted(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Directed recovery tests (checkpoint ring boundaries)
// ---------------------------------------------------------------------------

// A rollback target evicted from the checkpoint ring degrades to a full
// restart — and, being injected, still reproduces the fault-free bits.
TEST(ChaosTest, RollbackPastRingDegradesToFullRestart) {
  const ChaosCase c = NestedCases().front();
  EngineOptions options;
  options.num_trials = 24;
  options.num_batches = 6;
  options.slack = 2.0;
  options.seed = 99;
  options.checkpoint_history = 2;

  auto run = [&](const std::string& spec) {
    EngineOptions o = options;
    o.failpoints = spec;
    Session session(c.catalog.get(), o, ChaosFunctions());
    auto compiled = session.Sql(c.sql);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
    ChaosOutcome outcome;
    Status st = (*compiled)->Run([&](const PartialResult& partial) {
      outcome.partial_rows.push_back(partial.rows);
      outcome.estimates.push_back(partial.estimates);
      return BatchAction::kContinue;
    });
    EXPECT_TRUE(st.ok()) << st;
    outcome.metrics = (*compiled)->metrics();
    outcome.ok = st.ok();
    return outcome;
  };

  const ChaosOutcome clean = run("");
  // A quiet baseline makes the counters below exact.
  ASSERT_EQ(clean.metrics.TotalFailureRecoveries(), 0);

  // At batch 5 the ring holds checkpoints for batches 3 and 4 only; a
  // depth-4 fault targets batch 1 → no candidate → full restart.
  const ChaosOutcome deep = run("controller-batch-fault=at:5,times:1,arg:4");
  ExpectBitIdentical(deep, clean, "evicted-target full restart");
  EXPECT_EQ(deep.metrics.TotalFullRestarts(), 1);
  EXPECT_EQ(deep.metrics.MaxRollbackDepth(), 6);  // batches 0..5 replayed

  // Boundary: a depth-2 fault targets batch 3 — exactly the oldest
  // retained checkpoint. Restores it; no restart.
  const ChaosOutcome boundary =
      run("controller-batch-fault=at:5,times:1,arg:2");
  ExpectBitIdentical(boundary, clean, "ring-boundary restore");
  EXPECT_EQ(boundary.metrics.TotalFullRestarts(), 0);
  EXPECT_EQ(boundary.metrics.MaxRollbackDepth(), 2);
}

// Every retained checkpoint corrupt: capture-corruption on each batch in
// the ring forces restore verification to reject all candidates and fall
// back to a full restart, counting each rejection.
TEST(ChaosTest, AllCheckpointsCorruptFallsBackToFullRestart) {
  const ChaosCase c = NestedCases().front();
  EngineOptions options;
  options.num_trials = 24;
  options.num_batches = 5;
  options.slack = 2.0;
  options.seed = 99;
  options.checkpoint_history = 2;
  options.failpoints =
      "checkpoint-capture-corrupt=every:1;"
      "controller-batch-fault=at:4,times:1,arg:1";
  Session session(c.catalog.get(), options, ChaosFunctions());
  auto compiled = session.Sql(c.sql);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_TRUE((*compiled)->Run(nullptr).ok());
  const QueryMetrics& m = (*compiled)->metrics();
  EXPECT_GE(m.TotalCorruptCheckpoints(), 2);  // both ring entries rejected
  EXPECT_GE(m.TotalFullRestarts(), 1);
}

// ---------------------------------------------------------------------------
// Degraded tier
// ---------------------------------------------------------------------------

// An unbounded verdict storm walks the full degradation staircase: widened
// slack, disabled pruning, then classification-free processing — which
// cannot fail, so the run terminates with exact (tolerance-level) results
// and the staircase visible in the metrics.
TEST(ChaosTest, RecoveryStormWalksDegradationStaircase) {
  const ChaosCase c = NestedCases().front();
  const int num_batches = 4;
  const ChaosOutcome clean = RunChaos(c.catalog, c.sql, "", 0, num_batches);
  const ChaosOutcome stormy = RunChaos(
      c.catalog, c.sql, "exec-integrity-verdict=every:1", 0, num_batches);
  ExpectFinalClose(stormy, clean, "staircase");
  EXPECT_TRUE(stormy.metrics.DegradedMode());
  EXPECT_EQ(stormy.metrics.batches.back().degrade_level, 3);
  EXPECT_EQ(stormy.metrics.TotalRecoveriesExhausted(), 1);
  EXPECT_GE(stormy.metrics.TotalFullRestarts(), 1);
  // The storm burned through the whole attempt budget before level 3.
  EXPECT_GT(stormy.metrics.TotalFailureRecoveries(), 32);
}

// A natural-typed envelope escape (not flagged injected) must freeze the
// recovered variation ranges through the replay window — the §5.1 livelock
// guard — and still converge to the exact final answer.
TEST(ChaosTest, NaturalEnvelopeFaultFreezesReplayedRanges) {
  // Queries whose classification registers finite decision constraints —
  // a tracker nobody decided on can never fail, injected or not, so the
  // envelope fault needs queries with real obligations.
  std::vector<ChaosCase> cases;
  for (const ChaosCase& c : AllWorkloadCases()) {
    if (c.name == "tpch_q20" || c.name == "conviva_c1") cases.push_back(c);
  }
  ASSERT_EQ(cases.size(), 2u);
  for (const ChaosCase& c : cases) {
    SCOPED_TRACE(c.name);
    const int num_batches = 5;
    const ChaosOutcome clean =
        RunChaos(c.catalog, c.sql, "", 0, num_batches, 10);
    // A fire against a tracker with no finite constraint is vacuous (such
    // a value can never fail), so give the schedule enough fires to reach
    // a constrained tracker.
    const ChaosOutcome faulty = RunChaos(
        c.catalog, c.sql, "registry-envelope-fault=every:1,times:64", 0,
        num_batches, 10);
    ExpectFinalClose(faulty, clean, c.name + " natural fault");
    EXPECT_GE(faulty.metrics.TotalFailureRecoveries(), 1);
    EXPECT_GE(faulty.metrics.TotalFrozenReplayBatches(), 1);
    EXPECT_EQ(faulty.metrics.TotalInjectedFaults(), 0);
  }
}

// ---------------------------------------------------------------------------
// Ingest retries
// ---------------------------------------------------------------------------

TEST(ChaosTest, IngestRetriesTransientFaultsWithBoundedBackoff) {
  const std::string path =
      ::testing::TempDir() + "/iolap_chaos_ingest.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2.5\n3,4.5\n";
  }
  CsvRetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_sec = 0.0;

  // Two transient faults, then success on the third attempt.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("csv-read-fault=every:1,times:2")
                  .ok());
  int attempts = 0;
  auto table = ReadCsvFileWithRetry(path, {}, retry, &attempts);
  FailpointRegistry::Instance().Clear();
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(table->num_rows(), 2u);

  // More faults than the attempt budget: the last error surfaces.
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("csv-read-fault=every:1").ok());
  auto exhausted = ReadCsvFileWithRetry(path, {}, retry, &attempts);
  FailpointRegistry::Instance().Clear();
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(attempts, 4);

  // Deterministic failures are not retried: a missing file fails on the
  // first attempt.
  auto missing = ReadCsvFileWithRetry(path + ".nope", {}, retry, &attempts);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(attempts, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iolap
