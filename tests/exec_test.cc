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
  JoinStep step({0}, {0}, /*input_grows=*/true, /*prefix_grows=*/true);
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
  JoinStep step({0}, {0}, true, true);
  RowBatch left = {MakeRow({1, 100})};
  RowBatch right = {MakeRow({1, 200})};
  RowBatch out;
  step.ProcessBatch(left, right, &out);
  EXPECT_EQ(out.size(), 1u);  // ΔP⋈ΔI counted exactly once
}

TEST(JoinStepTest, StaticInputKeepsNoPrefixCache) {
  // input_grows=false: the prefix cache is not maintained.
  JoinStep step({0}, {0}, /*input_grows=*/false, /*prefix_grows=*/true);
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
  JoinStep step({0}, {0}, true, true);
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
  JoinStep step({}, {}, true, true);
  RowBatch out;
  step.ProcessBatch({MakeRow({1}), MakeRow({2})}, {MakeRow({10})}, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(JoinStepTest, ProbeCount) {
  JoinStep step({0}, {0}, false, true);
  RowBatch dim;
  for (int i = 0; i < 5; ++i) dim.push_back(MakeRow({i % 2, i}));
  RowBatch out;
  step.ProcessBatch({}, dim, &out);
  EXPECT_EQ(step.ProbeCount({Value::Int64(0)}), 3u);
  EXPECT_EQ(step.ProbeCount({Value::Int64(1)}), 2u);
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
  EXPECT_EQ(&copy.GetOrCreate(key, HashRow(key), 0), &written);
  EXPECT_EQ(copy.Find(key), &written);
}

// Recount of ByteSize's model from groups(), ignoring every cache.
size_t RecountBytes(const GroupedAggregateState& state) {
  size_t total = 0;
  for (const auto& [key, cells] : state.groups()) {
    total += RowByteSize(key) + sizeof(int);
    for (const TrialAccumulatorSet& acc : cells->aggs) total += acc.ByteSize();
  }
  return total;
}

TEST(GroupedAggregateTest, ByteSizeGrowsWithGroups) {
  auto specs = SumSpec();
  GroupedAggregateState state(&specs, 4);
  const size_t empty = state.ByteSize();
  for (int g = 0; g < 10; ++g) state.GetOrCreate({Value::Int64(g)}, 0);
  EXPECT_GT(state.ByteSize(), empty);
}

// The cached per-node sizes and hashes stay exact across writes and copies:
// MAX over strings changes a node's size when a longer value wins.
TEST(GroupedAggregateTest, CachedByteSizeMatchesRecount) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{*Functions().FindAggregate("max"),
                          Col(0, "s", ValueType::kString), "m"});
  GroupedAggregateState state(&specs, 2);
  for (int g = 0; g < 4; ++g) {
    state.GetOrCreate({Value::Int64(g)}, 0).aggs[0].AddMainOnly(
        Value::String("a"), 1.0);
  }
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));
  const uint64_t hash = state.ContentHash(/*use_cache=*/true);
  EXPECT_EQ(hash, state.ContentHash(/*use_cache=*/false));

  // An unshared node is written in place; the write drops both caches.
  state.GetOrCreate({Value::Int64(0)}, 1).aggs[0].AddMainOnly(
      Value::String("abcdef"), 1.0);
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));
  EXPECT_EQ(state.ContentHash(/*use_cache=*/true),
            state.ContentHash(/*use_cache=*/false));
  EXPECT_NE(state.ContentHash(/*use_cache=*/true), hash);

  GroupedAggregateState copy = state;
  copy.GetOrCreate({Value::Int64(1)}, 1).aggs[0].AddMainOnly(
      Value::String("a much longer string"), 1.0);
  copy.GetOrCreate({Value::Int64(9)}, 1).aggs[0].AddTrialOnly(
      1, Value::String("bb"), 1.0);
  EXPECT_EQ(copy.ByteSize(), RecountBytes(copy));
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));
  EXPECT_GT(copy.ByteSize(), state.ByteSize());
  EXPECT_EQ(copy.ContentHash(/*use_cache=*/true),
            copy.ContentHash(/*use_cache=*/false));

  // Writing the original after its sizes were cached re-measures it too.
  state.GetOrCreate({Value::Int64(2)}, 2).aggs[0].AddMainOnly(
      Value::String("zzzzzzzz"), 1.0);
  EXPECT_EQ(state.ByteSize(), RecountBytes(state));

  // Counting across both states visits each shared node once.
  std::unordered_set<const GroupedAggregateState::GroupCells*> counted;
  const size_t both = state.ByteSize(&counted) + copy.ByteSize(&counted);
  EXPECT_EQ(counted.size(), 7u);  // 4 originals, 2 clones, 1 new group
  EXPECT_LT(both, state.ByteSize() + copy.ByteSize());
}

}  // namespace
}  // namespace iolap
