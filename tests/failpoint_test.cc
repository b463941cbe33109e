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

// The ring never retains more than checkpoint_history - 1 sealed batches'
// records (with the batch in progress they reach checkpoint_history
// states), faults or not, and its retained bytes are introspectable.
TEST_F(FailpointTest, CheckpointRingStaysBounded) {
  auto catalog = RingCatalog(240, 11);
  size_t ring_size = 0, ring_bytes = 0;
  RunRing(catalog, "", &ring_size, &ring_bytes);
  EXPECT_EQ(ring_size, 2u);
  EXPECT_GT(ring_bytes, 0u);

  // A recovery storm (repeated injected verdicts) must not grow the ring
  // past its bound either.
  RunRing(catalog, "controller-batch-fault=every:1,times:4,arg:1",
          &ring_size, &ring_bytes);
  EXPECT_LE(ring_size, 2u);
}

// A record whose checksum fails verification cannot be undone, and neither
// can anything older: a recovery whose undo path crosses it falls back to a
// full restart, which drops the ring, so a later recovery over the same
// window neither stumbles over nor re-counts it.
TEST_F(FailpointTest, CorruptRecordForcesFullRestart) {
  auto catalog = RingCatalog(240, 12);
  size_t ring_size = 0, ring_bytes = 0;
  // Corrupt the record of batch 2 at its seal, then force two rollbacks
  // from batch 3 to batch 1 (the verdict seam is engine-level, so times:2
  // fires a second time during the replay of batch 3). The first must undo
  // batch 2's record, finds it corrupt and restarts; the replay re-seals
  // batch 2 cleanly, so the second restores batch 1.
  const QueryMetrics metrics = RunRing(
      catalog,
      "checkpoint-capture-corrupt=at:2,times:1;"
      "exec-integrity-verdict=at:3,times:2,arg:2",
      &ring_size, &ring_bytes);
  EXPECT_EQ(metrics.TotalCorruptCheckpoints(), 1);
  EXPECT_EQ(metrics.TotalFullRestarts(), 1);
  EXPECT_GE(metrics.TotalFailureRecoveries(), 2);
  EXPECT_LE(ring_size, 2u);
  EXPECT_GT(ring_bytes, 0u);
}

// A record holds what its batch wrote. When each group is written in a
// single batch (GROUP BY a unique id), no record holds a pre-image, so the
// ring stays a few hundred bytes while the state grows; when every batch
// rewrites all G groups (GROUP BY one of 4 values), each record holds G
// pre-images. The running ring count equals the records' bytes.
TEST_F(FailpointTest, CheckpointRingHoldsWhatBatchesWrote) {
  auto catalog = RingCatalog(240, 13);
  auto run = [&](const std::string& sql, auto&& check) {
    EngineOptions options;
    options.num_batches = 6;
    options.num_trials = 8;
    options.seed = 7;
    options.checkpoint_history = 4;
    Session session(catalog.get(), options);
    auto query = session.Sql(sql);
    ASSERT_TRUE(query.ok()) << query.status();
    const QueryController& controller = (*query)->controller();
    ASSERT_TRUE((*query)
                    ->Run([&](const PartialResult&) {
                      size_t bytes = 0;
                      for (const auto& records : controller.checkpoint_ring()) {
                        for (const auto& record : records) {
                          bytes += record.bytes;
                          check(record, controller.executor(0).sketch());
                        }
                      }
                      EXPECT_EQ(controller.CheckpointRingBytes(), bytes);
                      return BatchAction::kContinue;
                    })
                    .ok());
    EXPECT_EQ(controller.checkpoint_ring_size(), 3u);
    if (std::string(sql).find("GROUP BY id") != std::string::npos) {
      EXPECT_LT(controller.CheckpointRingBytes() * 10,
                controller.executor(0).sketch().ByteSize());
    }
  };
  run("SELECT id, sum(v) FROM t GROUP BY id",
      [](const BlockExecutor::UndoRecord& record,
         const GroupedAggregateState&) {
        EXPECT_TRUE(record.sketch.pre_images.empty()) << record.batch;
      });
  run("SELECT g, sum(v) FROM t GROUP BY g",
      [](const BlockExecutor::UndoRecord& record,
         const GroupedAggregateState& sketch) {
        if (record.batch == 0) return;
        EXPECT_EQ(record.sketch.num_groups, 4u);
        EXPECT_EQ(record.sketch.pre_images.size(), sketch.num_groups())
            << record.batch;
      });
}

}  // namespace
}  // namespace iolap
