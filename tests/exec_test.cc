// Unit tests for the execution layer: ExecRow, the incremental join steps
// with cached states and rollback watermarks, and the grouped sketch.

#include <gtest/gtest.h>

#include "exec/batch.h"
#include "exec/hash_aggregate.h"
#include "exec/operators.h"

namespace iolap {
namespace {

ExecRow MakeRow(std::initializer_list<int64_t> values, uint64_t uid = ExecRow::kNoStream) {
  ExecRow row;
  for (int64_t v : values) row.values.push_back(Value::Int64(v));
  row.stream_uid = uid;
  return row;
}

TEST(ExecRowTest, ConcatMultipliesWeightAndKeepsUid) {
  ExecRow left = MakeRow({1}, 7);
  left.weight = 2.0;
  ExecRow right = MakeRow({2});
  right.weight = 3.0;
  const ExecRow joined = ConcatRows(left, right);
  EXPECT_EQ(joined.values.size(), 2u);
  EXPECT_DOUBLE_EQ(joined.weight, 6.0);
  EXPECT_EQ(joined.stream_uid, 7u);
  EXPECT_TRUE(joined.FromStream());
}

TEST(ExecRowTest, ConcatUidFromRightSide) {
  const ExecRow joined = ConcatRows(MakeRow({1}), MakeRow({2}, 9));
  EXPECT_EQ(joined.stream_uid, 9u);
}

TEST(ExecRowTest, BatchByteSize) {
  RowBatch batch = {MakeRow({1, 2}), MakeRow({3, 4})};
  EXPECT_GT(BatchByteSize(batch), 2 * 16u);
}

// --------------------------------------------------------- InputCache

TEST(InputCacheTest, AppendAndMatch) {
  InputCache cache({0});
  cache.Append(MakeRow({1, 10}));
  cache.Append(MakeRow({2, 20}));
  cache.Append(MakeRow({1, 30}));
  EXPECT_EQ(cache.Matches({Value::Int64(1)}).size(), 2u);
  EXPECT_EQ(cache.Matches({Value::Int64(2)}).size(), 1u);
  EXPECT_TRUE(cache.Matches({Value::Int64(3)}).empty());
  EXPECT_GT(cache.ByteSize(), 0u);
}

TEST(InputCacheTest, TruncateRollsBackIndexAndBytes) {
  InputCache cache({0});
  cache.Append(MakeRow({1}));
  const size_t mark = cache.watermark();
  const size_t bytes = cache.ByteSize();
  cache.Append(MakeRow({1}));
  cache.Append(MakeRow({2}));
  EXPECT_EQ(cache.Matches({Value::Int64(1)}).size(), 2u);
  cache.TruncateTo(mark);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.ByteSize(), bytes);
  EXPECT_EQ(cache.Matches({Value::Int64(1)}).size(), 1u);
  EXPECT_TRUE(cache.Matches({Value::Int64(2)}).empty());
}

// ------------------------------------------------------------ JoinStep

// Incremental Δ(P ⋈ I) over several batches must equal the full join.
TEST(JoinStepTest, IncrementalEqualsFullJoin) {
  JoinStep step({0}, {0}, /*input_grows=*/true);
  std::vector<std::pair<int, int>> produced;  // (left payload, right payload)

  auto deliver = [&](std::vector<std::pair<int64_t, int64_t>> left,
                     std::vector<std::pair<int64_t, int64_t>> right) {
    RowBatch lp, rp;
    for (auto [k, v] : left) lp.push_back(MakeRow({k, v}));
    for (auto [k, v] : right) rp.push_back(MakeRow({k, v}));
    RowBatch out;
    step.ProcessBatch(lp, rp, &out);
    for (const ExecRow& row : out) {
      produced.emplace_back(static_cast<int>(row.values[1].int64()),
                            static_cast<int>(row.values[3].int64()));
    }
  };

  // Batch 0: L={a:1}, R={a:10} -> (1,10)
  deliver({{5, 1}}, {{5, 10}});
  // Batch 1: L+={a:2}, R+={a:20}:
  //   new pairs: (1,20) [old P x dR], (2,10), (2,20) [dP x R_new]
  deliver({{5, 2}}, {{5, 20}});
  // Batch 2: only right grows: (1,30), (2,30)
  deliver({}, {{5, 30}});
  // Batch 3: only left grows: (3,10), (3,20), (3,30)
  deliver({{5, 3}}, {});

  std::sort(produced.begin(), produced.end());
  std::vector<std::pair<int, int>> expected;
  for (int l = 1; l <= 3; ++l) {
    for (int r = 10; r <= 30; r += 10) expected.emplace_back(l, r);
  }
  EXPECT_EQ(produced, expected);
}

TEST(JoinStepTest, NoDuplicatesWithinBatch) {
  JoinStep step({0}, {0}, /*input_grows=*/true);
  RowBatch left = {MakeRow({1, 100})};
  RowBatch right = {MakeRow({1, 200})};
  RowBatch out;
  step.ProcessBatch(left, right, &out);
  EXPECT_EQ(out.size(), 1u);  // ΔP⋈ΔI counted exactly once
}

TEST(JoinStepTest, StaticInputKeepsNoPrefixCache) {
  // input_grows=false: the prefix cache is not maintained.
  JoinStep step({0}, {0}, /*input_grows=*/false);
  RowBatch dim = {MakeRow({1, 7})};
  RowBatch out;
  step.ProcessBatch({}, dim, &out);
  const size_t bytes_after_dim = step.StateBytes();
  RowBatch fact = {MakeRow({1, 1}), MakeRow({1, 2})};
  out.clear();
  step.ProcessBatch(fact, {}, &out);
  EXPECT_EQ(out.size(), 2u);
  // Only the dimension side is cached; fact rows were not added.
  EXPECT_EQ(step.StateBytes(), bytes_after_dim);
}

TEST(JoinStepTest, WatermarkRollback) {
  JoinStep step({0}, {0}, /*input_grows=*/true);
  RowBatch out;
  step.ProcessBatch({MakeRow({1, 1})}, {MakeRow({1, 10})}, &out);
  const auto mark = step.watermark();
  step.ProcessBatch({MakeRow({1, 2})}, {MakeRow({1, 20})}, &out);
  step.TruncateTo(mark);
  // Replaying the second batch reproduces the same deltas.
  RowBatch replay;
  step.ProcessBatch({MakeRow({1, 2})}, {MakeRow({1, 20})}, &replay);
  EXPECT_EQ(replay.size(), 3u);  // (1,20), (2,10), (2,20)
}

TEST(JoinStepTest, CrossJoinEmptyKeys) {
  JoinStep step({}, {}, /*input_grows=*/true);
  RowBatch out;
  step.ProcessBatch({MakeRow({1}), MakeRow({2})}, {MakeRow({10})}, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(JoinStepTest, ProbeCount) {
  JoinStep step({0}, {0}, /*input_grows=*/false);
  RowBatch dim;
  for (int i = 0; i < 5; ++i) dim.push_back(MakeRow({i % 2, i}));
  RowBatch out;
  step.ProcessBatch({}, dim, &out);
  // A prefix row is probed by its join column.
  EXPECT_EQ(step.ProbeCount(MakeRow({0, 99})), 3u);
  EXPECT_EQ(step.ProbeCount(MakeRow({1, 99})), 2u);
}

// ----------------------------------------------- GroupedAggregateState

// The registry the specs below point into; it outlives every test.
const FunctionRegistry& Functions() {
  static const auto functions = FunctionRegistry::Default();
  return *functions;
}

std::vector<AggSpec> SumSpec() {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{*Functions().FindAggregate("sum"),
                          Col(0, "x", ValueType::kDouble), "s"});
  return specs;
}

TEST(GroupedAggregateTest, GetOrCreateTracksFirstBatch) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 2);
  bool created = false;
  auto& cells = state.GetOrCreate({Value::Int64(1)}, 3, &created);
  EXPECT_TRUE(created);
  EXPECT_EQ(cells.first_batch, 3);
  EXPECT_EQ(cells.aggs.size(), 1u);
  state.GetOrCreate({Value::Int64(1)}, 5, &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(state.num_groups(), 1u);
}

// A copy shares its group nodes; the first write through GetOrCreate
// clones the written node only, and later writes in the same batch reach
// the same cells (deferred trial adds hold pointers into them).
TEST(GroupedAggregateTest, CloneIsDeep) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 0);
  state.GetOrCreate({Value::Int64(1)}, 0).aggs[0].AddMainOnly(
      Value::Double(5), 1.0);
  state.GetOrCreate({Value::Int64(2)}, 0).aggs[0].AddMainOnly(
      Value::Double(3), 1.0);
  GroupedAggregateState copy = state;
  EXPECT_EQ(copy.Find({Value::Int64(1)}), state.Find({Value::Int64(1)}));

  GroupedAggregateState::GroupCells& written =
      copy.GetOrCreate({Value::Int64(1)}, 0);
  written.aggs[0].AddMainOnly(Value::Double(7), 1.0);
  EXPECT_DOUBLE_EQ(
      state.Find({Value::Int64(1)})->aggs[0].MainResult(1.0).AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(
      copy.Find({Value::Int64(1)})->aggs[0].MainResult(1.0).AsDouble(), 12.0);
  // The unwritten group is still shared.
  EXPECT_EQ(copy.Find({Value::Int64(2)}), state.Find({Value::Int64(2)}));

  // A second write to the same group returns the same cells, by either
  // overload of the write gate.
  const Row key = {Value::Int64(1)};
  EXPECT_EQ(&copy.GetOrCreate(key, 0), &written);
  EXPECT_EQ(&copy.GetOrCreate(HashedRowRef{key.data(), key.size(),
                                           HashRow(key)},
                              0),
            &written);
  EXPECT_EQ(copy.Find(key), &written);
}

// Recount of ByteSize's model from groups().
size_t RecountBytes(const GroupedAggregateState& state) {
  size_t total = 0;
  for (const GroupedAggregateState::Group& g : state.groups()) {
    total += RowByteSize(g.key) + sizeof(int);
    for (const TrialAccumulatorSet& acc : g.cells->aggs) {
      total += acc.ByteSize();
    }
  }
  return total;
}

// Every group's key and content hash, in walk order.
std::vector<std::pair<Row, uint64_t>> Contents(
    const GroupedAggregateState& state) {
  std::vector<std::pair<Row, uint64_t>> out;
  for (const GroupedAggregateState::Group& g : state.groups()) {
    EXPECT_EQ(g.hash, HashRow(g.key));
    out.emplace_back(g.key, GroupedAggregateState::CellsHash(*g.cells));
  }
  return out;
}

TEST(GroupedAggregateTest, ByteSizeGrowsWithGroups) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 4);
  const size_t empty = state.ByteSize();
  for (int g = 0; g < 10; ++g) state.GetOrCreate({Value::Int64(g)}, 0);
  state.Seal();
  EXPECT_GT(state.ByteSize(), empty);
}

// The running byte count follows every write: after each Seal it equals a
// recount from groups(), and a rollback restores it. MAX over strings
// changes a node's size when a longer value wins.
TEST(GroupedAggregateTest, RunningByteSizeMatchesRecount) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{*Functions().FindAggregate("max"),
                          Col(0, "s", ValueType::kString), "m"});
  GroupedAggregateState state(&specs, 2);
  for (int g = 0; g < 4; ++g) {
    state.GetOrCreate({Value::Int64(g)}, 0).aggs[0].AddMainOnly(
        Value::String("a"), 1.0);
  }
  state.Seal();
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));

  state.GetOrCreate({Value::Int64(0)}, 1).aggs[0].AddMainOnly(
      Value::String("abcdef"), 1.0);
  // A group written in trial 1 only (a string folds as 0.0).
  const TrialWeight trial_1{1, 1.0};
  state.GetOrCreate({Value::Int64(9)}, 1).aggs[0].FoldTrials(
      &trial_1, 1, 0.0, ValueType::kString);
  const size_t before = state.ByteSize();
  state.Seal();
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));
  EXPECT_GT(state.ByteSize(), before);

  const size_t after_batch_1 = state.ByteSize();
  state.GetOrCreate({Value::Int64(1)}, 2).aggs[0].AddMainOnly(
      Value::String("a much longer string"), 1.0);
  GroupedAggregateState::Undo undo = state.Seal();
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));
  EXPECT_GT(state.ByteSize(), after_batch_1);
  state.Rollback(std::move(undo));
  EXPECT_EQ(state.ByteSize(), after_batch_1);
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));
}

// A batch that writes k of G existing groups (some more than once) and
// creates c new ones leaves an Undo of exactly k pre-images, in first-write
// order, and G as its group count. Rolling it back restores every group's
// content, the walk order and the byte count; the scratch pattern (every
// group created in the batch) records nothing.
TEST(GroupedAggregateTest, UndoHoldsPreImagesOfWrittenGroupsOnly) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 3);
  constexpr int kGroups = 40;
  for (int g = 0; g < kGroups; ++g) {
    auto& cells = state.GetOrCreate({Value::Int64(g)}, 0);
    cells.aggs[0].AddMainOnly(Value::Double(g), 1.0);
    const TrialWeight trial{g % 3, 2.0};
    cells.aggs[0].FoldTrials(&trial, 1, g, ValueType::kDouble);
  }
  EXPECT_TRUE(state.Seal().pre_images.empty());
  const auto before = Contents(state);
  const size_t bytes_before = state.ByteSize();

  // Batch 1 writes groups 7, 3 and 21 (3 twice) and creates 200 groups,
  // enough to grow the index several times.
  for (int g : {7, 3, 21, 3}) {
    state.GetOrCreate({Value::Int64(g)}, 1).aggs[0].AddMainOnly(
        Value::Double(100), 1.0);
  }
  for (int g = 0; g < 200; ++g) {
    state.GetOrCreate({Value::Int64(1000 + g)}, 1).aggs[0].AddMainOnly(
        Value::Double(1), 1.0);
  }
  GroupedAggregateState::Undo undo = state.Seal();
  EXPECT_EQ(undo.num_groups, static_cast<size_t>(kGroups));
  EXPECT_EQ(undo.bytes, bytes_before);
  ASSERT_EQ(undo.pre_images.size(), 3u);
  EXPECT_EQ(undo.pre_images[0].pos, 7u);
  EXPECT_EQ(undo.pre_images[1].pos, 3u);
  EXPECT_EQ(undo.pre_images[2].pos, 21u);
  // The pre-images are the old nodes, left intact by copy-on-write.
  EXPECT_DOUBLE_EQ(undo.pre_images[1].cells->aggs[0].MainResult(1.0).AsDouble(),
                   3.0);
  EXPECT_DOUBLE_EQ(
      state.Find({Value::Int64(3)})->aggs[0].MainResult(1.0).AsDouble(), 203.0);

  state.Rollback(std::move(undo));
  EXPECT_EQ(Contents(state), before);
  EXPECT_EQ(state.ByteSize(), bytes_before);
  EXPECT_EQ(state.Find({Value::Int64(1000)}), nullptr);
  for (int g = 0; g < kGroups; ++g) {
    ASSERT_NE(state.Find({Value::Int64(g)}), nullptr) << g;
  }
  // Recreating after the rollback appends again in creation order.
  state.GetOrCreate({Value::Int64(5000)}, 1);
  EXPECT_EQ(state.groups().back().key, Row{Value::Int64(5000)});
  EXPECT_EQ(state.num_groups(), static_cast<size_t>(kGroups) + 1);

  // A per-batch scratch instance: every group is created in its batch.
  GroupedAggregateState scratch(&specs, 3);
  for (int r = 0; r < 50; ++r) {
    scratch.GetOrCreate({Value::Int64(r % 7)}, 4).aggs[0].AddMainOnly(
        Value::Double(r), 1.0);
  }
  EXPECT_TRUE(scratch.Seal().pre_images.empty());
}

// Undos apply newest first across several batches and restore each earlier
// state exactly, including after the open writes are rolled back first.
TEST(GroupedAggregateTest, ChainedRollbacksRestoreEachState) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 2);
  std::vector<std::vector<std::pair<Row, uint64_t>>> states;
  std::vector<GroupedAggregateState::Undo> undos;
  for (int batch = 0; batch < 6; ++batch) {
    for (int r = 0; r < 30; ++r) {
      const int g = (r * 7 + batch * 11) % (10 + 8 * batch);
      state.GetOrCreate({Value::Int64(g)}, batch).aggs[0].AddMainOnly(
          Value::Double(r + batch), 1.0);
    }
    undos.push_back(state.Seal());
    states.push_back(Contents(state));
  }
  // Open writes of batch 6, then back to the state after batch 2.
  state.GetOrCreate({Value::Int64(3)}, 6).aggs[0].AddMainOnly(
      Value::Double(1), 1.0);
  state.GetOrCreate({Value::Int64(777)}, 6);
  state.Rollback(state.Seal());
  EXPECT_EQ(Contents(state), states[5]);
  for (int batch = 5; batch > 2; --batch) {
    state.Rollback(std::move(undos[batch]));
    EXPECT_EQ(Contents(state), states[batch - 1]) << batch;
    EXPECT_EQ(state.ByteSize(), RecountBytes(state)) << batch;
  }
}

}  // namespace
}  // namespace iolap
