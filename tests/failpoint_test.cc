// Unit tests of the deterministic fault-injection subsystem
// (common/failpoint.{h,cc}): spec parsing, activation modes, options, the
// environment merge, and scoped arming. Chaos coverage of the engine seams
// lives in chaos_test.cc.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/random.h"
#include "iolap/session.h"

namespace iolap {
namespace {

// Every test leaves the global registry disarmed.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().Clear(); }

  FailpointRegistry& reg() { return FailpointRegistry::Instance(); }
};

TEST_F(FailpointTest, DisarmedByDefault) {
  EXPECT_FALSE(FailpointRegistry::AnyArmedFast());
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));
}

TEST_F(FailpointTest, NameInventoryRoundTrips) {
  Failpoint fp;
  for (int i = 0; i < kNumFailpoints; ++i) {
    const char* name = FailpointRegistry::Name(static_cast<Failpoint>(i));
    ASSERT_TRUE(FailpointRegistry::Lookup(name, &fp)) << name;
    EXPECT_EQ(static_cast<int>(fp), i) << name;
  }
  EXPECT_FALSE(FailpointRegistry::Lookup("no-such-failpoint", &fp));
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  ASSERT_TRUE(reg().Configure("csv-read-fault=once").ok());
  EXPECT_TRUE(FailpointRegistry::AnyArmedFast());
  EXPECT_TRUE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 7));
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 7));
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 8));
  EXPECT_EQ(reg().hits(Failpoint::kCsvReadFault), 3u);
  EXPECT_EQ(reg().fired(Failpoint::kCsvReadFault), 1u);
}

TEST_F(FailpointTest, NthAndEveryCountHits) {
  ASSERT_TRUE(reg().Configure("csv-read-fault=nth:3").ok());
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));
  EXPECT_TRUE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));

  ASSERT_TRUE(reg().Configure("csv-read-fault=every:2").ok());
  int fires = 0;
  for (int i = 0; i < 6; ++i) {
    if (IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0)) ++fires;
  }
  EXPECT_EQ(fires, 3);
}

TEST_F(FailpointTest, AtMatchesDetailAndTimesCapsFires) {
  ASSERT_TRUE(
      reg().Configure("exec-integrity-verdict=at:4,times:2,arg:3").ok());
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kExecIntegrityVerdict, 3));
  EXPECT_TRUE(IOLAP_FAILPOINT(Failpoint::kExecIntegrityVerdict, 4));
  EXPECT_TRUE(IOLAP_FAILPOINT(Failpoint::kExecIntegrityVerdict, 4));
  // times:2 exhausted: the matching detail no longer fires.
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kExecIntegrityVerdict, 4));
  EXPECT_EQ(FailpointArg(Failpoint::kExecIntegrityVerdict, 1), 3);
  // Unset arg falls back to the site default.
  EXPECT_EQ(FailpointArg(Failpoint::kCsvReadFault, 42), 42);
}

TEST_F(FailpointTest, ProbIsDeterministicInSeedDetailAndHit) {
  ASSERT_TRUE(reg().Configure("pool-task-fault=prob:0.5:9").ok());
  std::vector<bool> first;
  for (uint64_t d = 0; d < 64; ++d) {
    first.push_back(IOLAP_FAILPOINT(Failpoint::kPoolTaskFault, d));
  }
  // Not degenerate at p = 0.5 over 64 draws.
  EXPECT_GT(reg().fired(Failpoint::kPoolTaskFault), 0u);
  EXPECT_LT(reg().fired(Failpoint::kPoolTaskFault), 64u);
  // Re-arming resets the hit counter: the same (seed, detail, hit) sequence
  // reproduces the same draws.
  ASSERT_TRUE(reg().Configure("pool-task-fault=prob:0.5:9").ok());
  for (uint64_t d = 0; d < 64; ++d) {
    EXPECT_EQ(IOLAP_FAILPOINT(Failpoint::kPoolTaskFault, d), first[d]) << d;
  }
}

TEST_F(FailpointTest, SpecErrorsKeepPreviousConfig) {
  ASSERT_TRUE(reg().Configure("csv-read-fault=once").ok());
  EXPECT_FALSE(reg().Configure("bogus-name=once").ok());
  EXPECT_FALSE(reg().Configure("csv-read-fault=flub").ok());
  EXPECT_FALSE(reg().Configure("csv-read-fault=nth:0").ok());
  EXPECT_FALSE(reg().Configure("csv-read-fault=prob:2.0").ok());
  EXPECT_FALSE(reg().Configure("csv-read-fault=once,times:0").ok());
  EXPECT_FALSE(reg().Configure("csv-read-fault").ok());
  // The original "once" config survived every rejected spec.
  EXPECT_TRUE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));
}

TEST_F(FailpointTest, LaterEntriesWinAndEmptyPiecesAreSkipped) {
  ASSERT_TRUE(
      reg().Configure("csv-read-fault=once; ;csv-read-fault=off;").ok());
  EXPECT_FALSE(IOLAP_FAILPOINT(Failpoint::kCsvReadFault, 0));
}

TEST_F(FailpointTest, ScopedArmsAndDisarms) {
  {
    ScopedFailpoints scoped("csv-read-fault=once");
    ASSERT_TRUE(scoped.status().ok());
    EXPECT_TRUE(FailpointRegistry::AnyArmedFast());
  }
  EXPECT_FALSE(FailpointRegistry::AnyArmedFast());
  // An empty spec neither arms nor clears an existing configuration.
  ASSERT_TRUE(reg().Configure("csv-read-fault=once").ok());
  {
    ScopedFailpoints scoped("");
    ASSERT_TRUE(scoped.status().ok());
  }
  EXPECT_TRUE(FailpointRegistry::AnyArmedFast());
}

TEST_F(FailpointTest, MergedSpecPutsEnvironmentFirst) {
  ASSERT_EQ(setenv("IOLAP_FAILPOINTS", "csv-read-fault=once", 1), 0);
  // Option specs come second, so they win on collisions.
  EXPECT_EQ(MergedFailpointSpec("csv-read-fault=off"),
            "csv-read-fault=once;csv-read-fault=off");
  EXPECT_EQ(MergedFailpointSpec(""), "csv-read-fault=once");
  ASSERT_EQ(unsetenv("IOLAP_FAILPOINTS"), 0);
  EXPECT_EQ(MergedFailpointSpec("pool-task-fault=once"),
            "pool-task-fault=once");
  EXPECT_EQ(MergedFailpointSpec(""), "");
}

// ---------------------------------------------------------------------------
// Checkpoint-ring bounds under injected corruption
// ---------------------------------------------------------------------------

std::shared_ptr<Catalog> RingCatalog(size_t rows, uint64_t seed) {
  Rng rng(seed);
  auto catalog = std::make_shared<Catalog>();
  Table t(Schema({{"id", ValueType::kInt64},
                  {"v", ValueType::kDouble},
                  {"g", ValueType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    t.AddRow({Value::Int64(static_cast<int64_t>(i)),
              Value::Double(rng.NextDouble() * 100),
              Value::Int64(static_cast<int64_t>(rng.NextBounded(4)))});
  }
  EXPECT_TRUE(catalog->RegisterTable("t", std::move(t), true).ok());
  return catalog;
}

QueryMetrics RunRing(const std::shared_ptr<Catalog>& catalog,
                     const std::string& failpoints, size_t* ring_size,
                     size_t* ring_bytes) {
  EngineOptions options;
  options.num_batches = 6;
  options.num_trials = 8;
  options.seed = 7;
  options.checkpoint_history = 3;
  options.failpoints = failpoints;
  Session session(catalog.get(), options);
  // Nested: the inner average is classified (variation-range tracking
  // live), so engine-level verdict seams can fire during replays too.
  auto query = session.Sql(
      "SELECT avg(v) FROM t WHERE v > (SELECT avg(v) FROM t)");
  EXPECT_TRUE(query.ok()) << query.status();
  EXPECT_TRUE((*query)->Run().ok());
  *ring_size = (*query)->controller().checkpoint_ring_size();
  *ring_bytes = (*query)->controller().CheckpointRingBytes();
  return (*query)->metrics();
}

// The ring never retains more than checkpoint_history entries, faults or
// not, and its retained bytes are introspectable.
TEST_F(FailpointTest, CheckpointRingStaysBounded) {
  auto catalog = RingCatalog(240, 11);
  size_t ring_size = 0, ring_bytes = 0;
  RunRing(catalog, "", &ring_size, &ring_bytes);
  EXPECT_LE(ring_size, 3u);
  EXPECT_GE(ring_size, 1u);
  EXPECT_GT(ring_bytes, 0u);

  // A recovery storm (repeated injected verdicts) must not grow the ring
  // past its bound either.
  RunRing(catalog, "controller-batch-fault=every:1,times:4,arg:1",
          &ring_size, &ring_bytes);
  EXPECT_LE(ring_size, 3u);
}

// A checkpoint whose checksum fails verification is pruned from the ring on
// the recovery walk that discovers it — a second walk over the same window
// must not pay for (or recount) the dead snapshot.
TEST_F(FailpointTest, CorruptCheckpointsArePrunedFromRing) {
  auto catalog = RingCatalog(240, 12);
  size_t ring_size = 0, ring_bytes = 0;
  // Corrupt the batch-2 snapshot at capture, then force two rollbacks that
  // both target it (the verdict seam is engine-level, so times:2 fires a
  // second time during the replay of batch 3). The first walk skips the
  // corrupt snapshot, counts it, erases it, and escalates one batch
  // deeper; the replay re-captures batch 2 cleanly, so the second walk
  // restores it without stumbling over — or re-counting — the corpse.
  const QueryMetrics metrics = RunRing(
      catalog,
      "checkpoint-capture-corrupt=at:2,times:1;"
      "exec-integrity-verdict=at:3,times:2,arg:1",
      &ring_size, &ring_bytes);
  EXPECT_EQ(metrics.TotalCorruptCheckpoints(), 1);
  EXPECT_GE(metrics.TotalFailureRecoveries(), 2);
  EXPECT_LE(ring_size, 3u);
  EXPECT_GT(ring_bytes, 0u);
}

// Snapshots share every sketch group no batch rewrote between them. When
// each group is written in a single batch (GROUP BY a unique id), the ring
// retains each group once, so its bytes stay near the newest snapshot's own
// size instead of growing with the number of snapshots retained.
TEST_F(FailpointTest, CheckpointRingCountsSharedGroupsOnce) {
  auto catalog = RingCatalog(240, 13);
  auto ring_bytes = [&](size_t history) {
    EngineOptions options;
    options.num_batches = 6;
    options.num_trials = 8;
    options.seed = 7;
    options.checkpoint_history = history;
    Session session(catalog.get(), options);
    auto query = session.Sql("SELECT id, sum(v) FROM t GROUP BY id");
    EXPECT_TRUE(query.ok()) << query.status();
    EXPECT_TRUE((*query)->Run().ok());
    EXPECT_EQ((*query)->controller().checkpoint_ring_size(), history);
    return (*query)->controller().CheckpointRingBytes();
  };
  // A ring of one holds exactly the newest snapshot.
  const size_t newest = ring_bytes(1);
  const size_t ring = ring_bytes(4);
  EXPECT_GT(ring, newest);
  EXPECT_LT(ring, 2 * newest);
}

}  // namespace
}  // namespace iolap
