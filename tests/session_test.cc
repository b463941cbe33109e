// Tests for the public Session / IncrementalQuery API and controller-level
// behaviours: metrics, checkpoint-ring degradation, stratified batching,
// UDF registration, and the rewrite-rules option.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "exec/reference.h"
#include "iolap/session.h"
#include "sql/binder.h"

namespace iolap {
namespace {

std::shared_ptr<Catalog> MakeCatalog(size_t rows, uint64_t seed) {
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

TEST(SessionTest, SqlCompileAndRun) {
  auto catalog = MakeCatalog(300, 1);
  EngineOptions options;
  options.num_batches = 5;
  options.num_trials = 8;
  Session session(catalog.get(), options);
  auto query = session.Sql("SELECT avg(v) FROM t WHERE v > 10");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ((*query)->num_batches(), 5u);
  ASSERT_TRUE((*query)->Run().ok());
  EXPECT_EQ((*query)->metrics().batches.size(), 5u);
  EXPECT_DOUBLE_EQ((*query)->last_result().fraction_processed, 1.0);
  EXPECT_EQ((*query)->plan().streamed_table, "t");
}

TEST(SessionTest, CompileErrorsSurface) {
  auto catalog = MakeCatalog(10, 2);
  Session session(catalog.get());
  EXPECT_FALSE(session.Sql("SELECT broken FROM").ok());
  EXPECT_FALSE(session.Sql("SELECT avg(nope) FROM t").ok());
}

TEST(SessionTest, CustomUdfThroughSession) {
  auto catalog = MakeCatalog(200, 3);
  EngineOptions options;
  options.num_batches = 4;
  options.num_trials = 4;
  Session session(catalog.get(), options);
  ASSERT_TRUE(session.functions()
                  ->RegisterScalar(
                      {.name = "double_it",
                       .signature = {.params = {ParamKind::kNumeric},
                                     .result = ValueType::kDouble},
                       .monotone = true,
                       .numeric = [](const NumericValue* args, size_t) {
                         if (args[0].is_null()) return NumericValue::Null();
                         return NumericValue::Dbl(2.0 * args[0].AsDouble());
                       }})
                  .ok());
  auto query = session.Sql("SELECT avg(double_it(v)) FROM t");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE((*query)->Run().ok());
  const double avg2 = (*query)->last_result().rows.row(0)[0].AsDouble();
  auto plain = session.Sql("SELECT avg(v) FROM t");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE((*plain)->Run().ok());
  EXPECT_NEAR(avg2, 2.0 * (*plain)->last_result().rows.row(0)[0].AsDouble(),
              1e-9);
}

TEST(SessionTest, RewriteOptionPreservesResults) {
  Rng rng(5);
  auto catalog = std::make_shared<Catalog>();
  Table r(Schema({{"k", ValueType::kInt64}, {"x", ValueType::kDouble}}));
  for (int i = 0; i < 300; ++i) {
    r.AddRow({Value::Int64(static_cast<int64_t>(rng.NextBounded(6))),
              Value::Double(rng.NextDouble())});
  }
  Table s(Schema({{"k", ValueType::kInt64}, {"y", ValueType::kDouble}}));
  for (int i = 0; i < 200; ++i) {
    s.AddRow({Value::Int64(static_cast<int64_t>(rng.NextBounded(6))),
              Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(catalog->RegisterTable("r", std::move(r), true).ok());
  ASSERT_TRUE(catalog->RegisterTable("s", std::move(s)).ok());

  const std::string sql = "SELECT sum(x * y) FROM r, s WHERE r.k = s.k";
  double plain_result = 0, rewritten_result = 0;
  for (bool rewrite : {false, true}) {
    EngineOptions options;
    options.num_batches = 4;
    options.num_trials = 4;
    options.apply_rewrite_rules = rewrite;
    Session session(catalog.get(), options);
    auto query = session.Sql(sql);
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_TRUE((*query)->Run().ok());
    (rewrite ? rewritten_result : plain_result) =
        (*query)->last_result().rows.row(0)[0].AsDouble();
    EXPECT_EQ((*query)->plan().blocks.size(), rewrite ? 3u : 1u);
  }
  EXPECT_NEAR(plain_result, rewritten_result,
              1e-6 * std::fabs(plain_result));
}

TEST(SessionTest, StratifiedPartitioningStaysExact) {
  auto catalog = MakeCatalog(400, 7);
  EngineOptions options;
  options.num_batches = 5;
  options.num_trials = 6;
  options.partition.scheme = PartitionScheme::kStratified;
  options.partition.stratify_column = 2;  // column "g"
  Session session(catalog.get(), options);
  auto query = session.Sql("SELECT g, sum(v), count(*) FROM t GROUP BY g");
  ASSERT_TRUE(query.ok()) << query.status();

  auto plan = BindSql("SELECT g, sum(v), count(*) FROM t GROUP BY g",
                      *catalog, FunctionRegistry::Default());
  ASSERT_TRUE(plan.ok());
  const Table& fact = *(*catalog->Find("t"))->table;
  std::vector<Row> accumulated;
  QueryController& controller = (*query)->controller();
  ASSERT_TRUE((*query)
                  ->Run([&](const PartialResult& partial) {
                    for (uint64_t id :
                         controller.layout().batches[partial.batch]) {
                      accumulated.push_back(fact.row(id));
                    }
                    const double scale = static_cast<double>(fact.num_rows()) /
                                         accumulated.size();
                    auto expected =
                        EvaluateReference(*plan, *catalog, accumulated, scale);
                    EXPECT_TRUE(expected.ok());
                    EXPECT_EQ(partial.rows.num_rows(), expected->num_rows());
                    // Stratified batches: every group is present from the
                    // first batch on.
                    EXPECT_EQ(partial.rows.num_rows(), 4u);
                    return BatchAction::kContinue;
                  })
                  .ok());
}

TEST(SessionTest, MetricsArepopulated) {
  auto catalog = MakeCatalog(500, 9);
  EngineOptions options;
  options.num_batches = 8;
  options.num_trials = 6;
  Session session(catalog.get(), options);
  auto query = session.Sql(
      "SELECT avg(v) FROM t WHERE v > (SELECT avg(v) FROM t)");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE((*query)->Run().ok());
  const QueryMetrics& metrics = (*query)->metrics();
  ASSERT_EQ(metrics.batches.size(), 8u);
  EXPECT_GT(metrics.TotalLatencySec(), 0.0);
  EXPECT_GT(metrics.TotalShippedBytes(), 0u);
  EXPECT_GT(metrics.batches.back().other_state_bytes, 0u);
  uint64_t input_total = 0;
  for (const BatchMetrics& b : metrics.batches) input_total += b.input_rows;
  // Each block scanning the streamed table counts its delta: two blocks
  // (inner avg + outer) × 500 rows.
  EXPECT_EQ(input_total, 1000u);
  EXPECT_DOUBLE_EQ(metrics.batches.back().fraction_processed, 1.0);
  EXPECT_GE(metrics.LatencyToFraction(0.5), 0.0);
  EXPECT_LE(metrics.LatencyToFraction(0.5), metrics.TotalLatencySec());
  EXPECT_FALSE(metrics.Summary().empty());
}

// Shipped bytes come from one shuffle/broadcast cost model (Figs. 9(c) and
// 10(d)). Pin the terms that tell the modes apart: iOLAP pays bootstrap
// multiplicities and a per-batch broadcast of the inner aggregate that the
// one-pass baseline does not, OPT2 off re-ships the saved pending rows, and
// the model is a function of the data alone, never of the thread count.
TEST(SessionTest, ShippedBytesFollowTheCostModel) {
  auto catalog = MakeCatalog(500, 9);
  struct Shipped {
    std::vector<uint64_t> per_batch;
    uint64_t total = 0;
    size_t pending_before_last = 0;  // largest pending set a batch re-reads
  };
  auto run = [&](ExecutionMode mode, bool lazy_lineage, size_t num_threads) {
    EngineOptions options;
    options.mode = mode;
    options.lazy_lineage = lazy_lineage;
    options.num_batches = 8;
    options.num_trials = 6;
    options.num_threads = num_threads;
    Session session(catalog.get(), options);
    auto query = session.Sql(
        "SELECT avg(v) FROM t WHERE v > (SELECT avg(v) FROM t)");
    Shipped shipped;
    EXPECT_TRUE(query.ok()) << query.status();
    if (!query.ok()) return shipped;
    QueryController& controller = (*query)->controller();
    const size_t last = (*query)->num_batches() - 1;
    EXPECT_TRUE((*query)
                    ->Run([&](const PartialResult& partial) {
                      if (static_cast<size_t>(partial.batch) < last) {
                        shipped.pending_before_last =
                            std::max(shipped.pending_before_last,
                                     controller.PendingCount());
                      }
                      return BatchAction::kContinue;
                    })
                    .ok());
    for (const BatchMetrics& b : (*query)->metrics().batches) {
      shipped.per_batch.push_back(b.shipped_bytes);
    }
    shipped.total = (*query)->metrics().TotalShippedBytes();
    return shipped;
  };

  const Shipped baseline = run(ExecutionMode::kBaseline, true, 0);
  const Shipped iolap = run(ExecutionMode::kIolap, true, 0);
  EXPECT_GT(baseline.total, 0u);
  EXPECT_GT(iolap.total, baseline.total);

  const Shipped eager = run(ExecutionMode::kIolap, false, 0);
  ASSERT_GT(iolap.pending_before_last, 0u);
  EXPECT_GT(eager.total, iolap.total);

  const Shipped threaded = run(ExecutionMode::kIolap, true, 4);
  EXPECT_EQ(threaded.per_batch, iolap.per_batch);
}

// A tiny checkpoint ring forces deep rollbacks to degrade to full
// restarts; exactness must survive.
TEST(SessionTest, CheckpointEvictionDegradesGracefully) {
  auto catalog = MakeCatalog(400, 11);
  EngineOptions options;
  options.num_batches = 12;
  options.num_trials = 6;
  options.slack = 0.0;             // provoke failures
  options.checkpoint_history = 1;  // almost no checkpoints retained
  Session session(catalog.get(), options);
  auto query = session.Sql(
      "SELECT sum(v) FROM t WHERE v > (SELECT avg(v) FROM t)");
  ASSERT_TRUE(query.ok()) << query.status();

  auto plan = BindSql("SELECT sum(v) FROM t WHERE v > (SELECT avg(v) FROM t)",
                      *catalog, FunctionRegistry::Default());
  ASSERT_TRUE(plan.ok());
  const Table& fact = *(*catalog->Find("t"))->table;
  std::vector<Row> accumulated;
  QueryController& controller = (*query)->controller();
  ASSERT_TRUE((*query)
                  ->Run([&](const PartialResult& partial) {
                    for (uint64_t id :
                         controller.layout().batches[partial.batch]) {
                      accumulated.push_back(fact.row(id));
                    }
                    const double scale = static_cast<double>(fact.num_rows()) /
                                         accumulated.size();
                    auto expected =
                        EvaluateReference(*plan, *catalog, accumulated, scale);
                    EXPECT_TRUE(expected.ok());
                    EXPECT_EQ(partial.rows.num_rows(), expected->num_rows());
                    if (partial.rows.num_rows() == expected->num_rows() &&
                        partial.rows.num_rows() > 0) {
                      EXPECT_NEAR(partial.rows.row(0)[0].AsDouble(),
                                  expected->row(0)[0].AsDouble(),
                                  1e-6 * std::fabs(
                                             expected->row(0)[0].AsDouble()));
                    }
                    return BatchAction::kContinue;
                  })
                  .ok());
}

}  // namespace
}  // namespace iolap
