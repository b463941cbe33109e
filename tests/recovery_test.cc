// Restore exactness of the undo log (docs/INTERNALS.md §9). An oracle
// deep-copies every block's recoverable state after each sealed batch: the
// sketch's groups in walk order with their content hashes, the
// non-deterministic set U in order, the sink's size and the join
// watermarks. After every restore the blocks' state must equal the
// oracle's copy at the restored batch (empty after a full restart), and
// after every seal:
//  - the record just sealed holds exactly the pre-images of the groups the
//    batch wrote, and exactly the rows that left U;
//  - the running byte counts equal a full recount.
// Recoveries come from injected verdicts at several depths, natural
// variation-range failures (q17, q20 and Conviva at slack 0) and full
// restarts, with checkpoint_history 0, 1, 2 and 8, at 0 and 3 threads. The
// engine seed (bootstrap weights, batch layout) comes from IOLAP_CHAOS_SEED
// when it is set, so the chaos sweep varies the runs.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "iolap/query_controller.h"
#include "iolap/session.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {
namespace {

struct GroupCopy {
  Row key;
  uint64_t content = 0;
  int last_touched = 0;
  bool operator==(const GroupCopy&) const = default;
};

struct RowCopy {
  Row values;
  double weight = 0;
  uint64_t uid = 0;
  bool operator==(const RowCopy& o) const {
    return RowEq()(values, o.values) && weight == o.weight && uid == o.uid;
  }
};

struct BlockCopy {
  std::vector<GroupCopy> groups;
  std::vector<RowCopy> pending;
  size_t sink_size = 0;
  std::vector<std::pair<size_t, size_t>> join_marks;
  bool operator==(const BlockCopy&) const = default;
};

RowCopy CopyRow(const ExecRow& row) {
  return {row.values, row.weight, row.stream_uid};
}

BlockCopy CopyBlock(const BlockExecutor& executor) {
  BlockCopy copy;
  for (const GroupedAggregateState::Group& g : executor.sketch().groups()) {
    copy.groups.push_back({g.key, GroupedAggregateState::CellsHash(*g.cells),
                           g.cells->last_touched});
  }
  for (const ExecRow& row : executor.pending_rows()) {
    copy.pending.push_back(CopyRow(row));
  }
  copy.sink_size = executor.sink_rows().size();
  for (const JoinStep::Watermark& mark : executor.JoinWatermarks()) {
    copy.join_marks.emplace_back(mark.input, mark.prefix);
  }
  return copy;
}

size_t RecountOtherBytes(const BlockExecutor& executor) {
  size_t total = BatchByteSize(executor.pending_rows()) +
                 BatchByteSize(executor.sink_rows());
  for (const GroupedAggregateState::Group& g : executor.sketch().groups()) {
    total += GroupedAggregateState::GroupBytes(g.key, *g.cells);
  }
  return total;
}

struct Counts {
  int restores = 0;
  int full_restarts = 0;
  // Restores that compared a non-empty U or sketch of a stateful block.
  int restores_with_pending = 0;
  int restores_with_groups = 0;
  int left_rows = 0;
  int pre_images = 0;
};

// Follows one run through the controller's state hook and checks every
// seal and every restore against the oracle.
class Oracle {
 public:
  explicit Oracle(QueryController* controller) : c_(controller) {
    c_->set_state_hook(
        [this](int batch, bool restored) { OnState(batch, restored); });
  }

  const Counts& counts() const { return counts_; }

 private:
  std::vector<BlockCopy> CopyAll() const {
    std::vector<BlockCopy> all;
    for (size_t b = 0; b < c_->plan().blocks.size(); ++b) {
      all.push_back(CopyBlock(c_->executor(b)));
    }
    return all;
  }

  void OnState(int batch, bool restored) {
    const std::vector<BlockCopy> now = CopyAll();
    if (restored) {
      ++counts_.restores;
      if (batch < 0) {
        ++counts_.full_restarts;
        for (const BlockCopy& block : now) {
          BlockCopy empty;
          empty.join_marks.assign(block.join_marks.size(), {0, 0});
          EXPECT_EQ(block, empty);
        }
      } else {
        ASSERT_EQ(oracle_.count(batch), 1u) << "restored batch " << batch;
        const std::vector<BlockCopy>& want = oracle_.at(batch);
        for (size_t b = 0; b < now.size(); ++b) {
          // A snapshot consumer rebuilds its state from its input every
          // batch; undoing its record clears it.
          if (c_->executor(b).stateless()) continue;
          EXPECT_EQ(now[b], want[b]) << "block " << b << " restored to batch "
                                     << batch;
          counts_.restores_with_pending += !want[b].pending.empty();
          counts_.restores_with_groups += !want[b].groups.empty();
        }
      }
      prev_ = now;
      return;
    }
    CheckRecord(batch, now);
    size_t ring = 0;
    for (const auto& records : c_->checkpoint_ring()) {
      for (const BlockExecutor::UndoRecord& record : records) {
        ring += record.bytes;
      }
    }
    EXPECT_EQ(c_->CheckpointRingBytes(), ring);
    for (size_t b = 0; b < now.size(); ++b) {
      EXPECT_EQ(c_->executor(b).OtherStateBytes(),
                RecountOtherBytes(c_->executor(b)))
          << "block " << b << " after batch " << batch;
    }
    oracle_[batch] = now;
    prev_ = now;
  }

  // The record of `batch` against the states before (prev_) and after it.
  void CheckRecord(int batch, const std::vector<BlockCopy>& now) {
    if (c_->checkpoint_ring().empty() ||
        c_->checkpoint_ring().back()[0].batch != batch) {
      return;  // checkpoint_history 1 keeps no sealed record
    }
    if (prev_.empty()) prev_.resize(now.size());
    const auto& records = c_->checkpoint_ring().back();
    for (size_t b = 0; b < now.size(); ++b) {
      if (c_->executor(b).stateless()) continue;
      const BlockExecutor::UndoRecord& record = records[b];
      const BlockCopy& before = prev_[b];
      const BlockCopy& after = now[b];
      // Pre-images: exactly the groups that existed before and were
      // written in this batch, holding their old content.
      ASSERT_EQ(record.sketch.num_groups, before.groups.size());
      std::vector<bool> has_pre(before.groups.size(), false);
      for (const GroupedAggregateState::PreImage& pre :
           record.sketch.pre_images) {
        ASSERT_LT(pre.pos, before.groups.size());
        EXPECT_FALSE(has_pre[pre.pos]);
        has_pre[pre.pos] = true;
        EXPECT_EQ(GroupedAggregateState::CellsHash(*pre.cells),
                  before.groups[pre.pos].content);
      }
      for (size_t pos = 0; pos < before.groups.size(); ++pos) {
        const bool written = after.groups[pos].last_touched == batch;
        EXPECT_EQ(has_pre[pos], written) << "group " << pos;
        if (!written) {
          EXPECT_EQ(after.groups[pos], before.groups[pos]) << "group " << pos;
        }
      }
      counts_.pre_images += static_cast<int>(record.sketch.pre_images.size());
      // U: [fresh rows] + [old rows that stayed, in order]; the record
      // holds exactly the old rows that left, at their old indices.
      ASSERT_LE(record.fresh_pending, after.pending.size());
      const size_t stayed = after.pending.size() - record.fresh_pending;
      ASSERT_EQ(before.pending.size(), stayed + record.left_pending.size());
      size_t next_stayed = record.fresh_pending;
      size_t next_left = 0;
      for (size_t i = 0; i < before.pending.size(); ++i) {
        if (next_left < record.left_pending.size() &&
            record.left_pending[next_left].first == i) {
          EXPECT_EQ(CopyRow(record.left_pending[next_left].second),
                    before.pending[i]);
          ++next_left;
        } else {
          EXPECT_EQ(after.pending[next_stayed], before.pending[i]);
          ++next_stayed;
        }
      }
      counts_.left_rows += static_cast<int>(record.left_pending.size());
      EXPECT_EQ(record.sink_watermark, before.sink_size);
    }
  }

  QueryController* c_;
  std::map<int, std::vector<BlockCopy>> oracle_;
  std::vector<BlockCopy> prev_;
  Counts counts_;
};

std::shared_ptr<FunctionRegistry> Functions() {
  static std::shared_ptr<FunctionRegistry> functions = [] {
    auto f = FunctionRegistry::Default();
    RegisterConvivaUdfs(f.get());
    return f;
  }();
  return functions;
}

std::shared_ptr<Catalog> TpchCatalog(const std::string& streamed) {
  static std::map<std::string, std::shared_ptr<Catalog>> cache;
  auto it = cache.find(streamed);
  if (it != cache.end()) return it->second;
  TpchConfig config = TpchConfig{}.Scaled(0.02);
  auto catalog = MakeTpchCatalog(config, streamed);
  EXPECT_TRUE(catalog.ok()) << catalog.status();
  return cache.emplace(streamed, *catalog).first->second;
}

std::shared_ptr<Catalog> ConvivaCatalog() {
  static std::shared_ptr<Catalog> catalog = [] {
    auto made = MakeConvivaCatalog(ConvivaConfig{}.Scaled(0.02));
    EXPECT_TRUE(made.ok()) << made.status();
    return *made;
  }();
  return catalog;
}

struct Case {
  std::string id;
  std::shared_ptr<Catalog> catalog;
  std::string sql;
};

Case Query(const std::string& id) {
  for (const BenchQuery& q : TpchQueries()) {
    if (q.id == id) return {id, TpchCatalog(q.streamed_table), q.sql};
  }
  for (const BenchQuery& q : ConvivaQueries()) {
    if (q.id == id) return {id, ConvivaCatalog(), q.sql};
  }
  ADD_FAILURE() << "no query " << id;
  return {};
}

Counts RunWithOracle(const Case& c, EngineOptions options) {
  Session session(c.catalog.get(), options, Functions());
  auto query = session.Sql(c.sql);
  EXPECT_TRUE(query.ok()) << query.status();
  if (!query.ok()) return {};
  Oracle oracle(&(*query)->controller());
  const Status status = (*query)->Run();
  EXPECT_TRUE(status.ok()) << status;
  const QueryMetrics& m = (*query)->metrics();
  EXPECT_EQ(oracle.counts().full_restarts, m.TotalFullRestarts());
  EXPECT_EQ(oracle.counts().restores, m.TotalFailureRecoveries());
  return oracle.counts();
}

uint64_t Seed() {
  const char* env = std::getenv("IOLAP_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 5;
}

EngineOptions Options(size_t threads, size_t history) {
  EngineOptions options;
  options.num_batches = 8;
  options.num_trials = 12;
  options.seed = Seed();
  options.num_threads = threads;
  options.checkpoint_history = history;
  return options;
}

// Injected verdicts at several depths (depth 9 from batch 6 is a full
// restart) on nested queries with pending rows, for every ring size
// (checkpoint_history 0 keeps nothing, so every recovery restarts).
TEST(RestoreExactnessTest, InjectedVerdictsAtSeveralDepths) {
  Counts total;
  for (const std::string id : {"q17", "q20", "c1", "c10"}) {
    const Case c = Query(id);
    for (size_t threads : {0, 3}) {
      for (size_t history : {0, 1, 2, 8}) {
        for (int depth : {1, 2, 4, 9}) {
          SCOPED_TRACE(id + " threads=" + std::to_string(threads) +
                       " history=" + std::to_string(history) +
                       " depth=" + std::to_string(depth));
          EngineOptions options = Options(threads, history);
          options.failpoints = "exec-integrity-verdict=at:6,times:1,arg:" +
                               std::to_string(depth);
          const Counts counts = RunWithOracle(c, options);
          total.restores += counts.restores;
          total.full_restarts += counts.full_restarts;
          total.restores_with_pending += counts.restores_with_pending;
          total.restores_with_groups += counts.restores_with_groups;
          total.left_rows += counts.left_rows;
          total.pre_images += counts.pre_images;
          EXPECT_GE(counts.restores, 1);
          if (history == 0) {
            EXPECT_EQ(counts.full_restarts, counts.restores);
          }
        }
      }
    }
  }
  EXPECT_GT(total.restores, total.full_restarts);
  EXPECT_GT(total.full_restarts, 0);
  EXPECT_GT(total.restores_with_pending, 0);
  EXPECT_GT(total.restores_with_groups, 0);
  EXPECT_GT(total.left_rows, 0);
  EXPECT_GT(total.pre_images, 0);
}

// Natural variation-range failures (slack 0 provokes them): replays run
// with frozen ranges, so the replayed batches' records differ from the
// first ones, and a later restore must land on the replayed state.
TEST(RestoreExactnessTest, NaturalRecoveries) {
  Counts total;
  for (const std::string id : {"q17", "q20", "c1", "c2", "c6"}) {
    const Case c = Query(id);
    for (size_t threads : {0, 3}) {
      for (size_t history : {2, 8}) {
        for (uint64_t draw : {0, 1}) {
          SCOPED_TRACE(id + " threads=" + std::to_string(threads) +
                       " history=" + std::to_string(history) +
                       " draw=" + std::to_string(draw));
          EngineOptions options = Options(threads, history);
          options.num_batches = 12;
          options.slack = 0.0;
          options.seed += 1000 * draw;
          const Counts counts = RunWithOracle(c, options);
          total.restores += counts.restores;
          total.full_restarts += counts.full_restarts;
          total.restores_with_pending += counts.restores_with_pending;
        }
      }
    }
  }
  EXPECT_GT(total.restores, total.full_restarts);
  EXPECT_GT(total.restores_with_pending, 0);
}

}  // namespace
}  // namespace iolap
