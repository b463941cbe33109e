// Integration tests of the incremental delta engine against the reference
// evaluator: Theorem 1 says every partial result must equal the direct
// evaluation Q(D_i, m_i). These are differential tests over a spread of
// query shapes, execution modes and seeds.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "catalog/catalog.h"
#include "common/random.h"
#include "exec/reference.h"
#include "iolap/query_controller.h"
#include "iolap/session.h"
#include "plan/plan_builder.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {
namespace {

constexpr double kTol = 1e-7;

// Compares two result tables cell by cell with numeric tolerance.
void ExpectTablesEqual(const Table& actual, const Table& expected,
                       const std::string& context) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << context;
  for (size_t r = 0; r < actual.num_rows(); ++r) {
    ASSERT_EQ(actual.row(r).size(), expected.row(r).size()) << context;
    for (size_t c = 0; c < actual.row(r).size(); ++c) {
      const Value& a = actual.row(r)[c];
      const Value& e = expected.row(r)[c];
      if (a.is_numeric() && e.is_numeric()) {
        const double av = a.AsDouble();
        const double ev = e.AsDouble();
        const double tol = kTol * std::max(1.0, std::fabs(ev));
        EXPECT_NEAR(av, ev, tol)
            << context << " row " << r << " col " << c;
      } else {
        EXPECT_TRUE(a.Equals(e))
            << context << " row " << r << " col " << c << ": "
            << a.ToString() << " vs " << e.ToString();
      }
    }
  }
}

// Builds a synthetic sessions fact table plus a small sites dimension.
void FillCatalog(Catalog* catalog, size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table sessions(Schema({{"sessions.session_id", ValueType::kInt64},
                         {"sessions.buffer_time", ValueType::kDouble},
                         {"sessions.play_time", ValueType::kDouble},
                         {"sessions.site", ValueType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    sessions.AddRow({Value::Int64(static_cast<int64_t>(i)),
                     Value::Double(5.0 + 60.0 * rng.NextDouble()),
                     Value::Double(30.0 + 600.0 * rng.NextDouble()),
                     Value::Int64(static_cast<int64_t>(rng.NextZipf(8, 0.8)))});
  }
  ASSERT_TRUE(
      catalog->RegisterTable("sessions", std::move(sessions), true).ok());

  Table sites(Schema({{"sites.site", ValueType::kInt64},
                      {"sites.region", ValueType::kString},
                      {"sites.weight", ValueType::kDouble}}));
  const char* regions[] = {"us", "eu", "apac", "latam"};
  for (int s = 0; s < 8; ++s) {
    sites.AddRow({Value::Int64(s), Value::String(regions[s % 4]),
                  Value::Double(1.0 + s * 0.25)});
  }
  ASSERT_TRUE(catalog->RegisterTable("sites", std::move(sites)).ok());
}

enum class QueryShape {
  kSimpleSpja,       // deterministic filter + global aggregates
  kGroupedSpja,      // join with dimension + group-by
  kSbi,              // scalar nested subquery in WHERE (Example 1)
  kCorrelated,       // per-group subquery compared per row (Q17 shape)
  kJoinAggregates,   // join of the fact with an aggregate relation
  kHavingTop,        // group-by + HAVING vs scalar subquery (Q11 shape)
  kUncertainAggArg,  // aggregate over an uncertain attribute
  // A snapshot consumer that aggregates and feeds a join: each of its
  // groups must reach the join once, not once per batch.
  kSnapshotAggregateJoin,
};

Result<QueryPlan> BuildQuery(QueryShape shape, const Catalog& catalog,
                             std::shared_ptr<FunctionRegistry> functions) {
  PlanBuilder pb(&catalog, functions);
  switch (shape) {
    case QueryShape::kSimpleSpja: {
      auto& b = pb.NewBlock("simple");
      b.Scan("sessions")
          .Filter(Gt(b.ColRef("buffer_time"), Lit(20.0)))
          .Agg("sum", b.ColRef("play_time"), "total_play")
          .Agg("count", Lit(int64_t{1}), "n")
          .Agg("avg", b.ColRef("buffer_time"), "avg_buffer");
      break;
    }
    case QueryShape::kGroupedSpja: {
      auto& b = pb.NewBlock("grouped");
      b.Scan("sessions")
          .Join("sites", {"sessions.site"}, {"sites.site"})
          .Filter(Lt(b.ColRef("buffer_time"), Lit(50.0)))
          .GroupBy("region")
          .Agg("avg", Mul(b.ColRef("play_time"), b.ColRef("weight")),
               "weighted_play")
          .Agg("count", Lit(int64_t{1}), "n");
      break;
    }
    case QueryShape::kSbi: {
      auto& inner = pb.NewBlock("inner_avg");
      inner.Scan("sessions").Agg("avg", inner.ColRef("buffer_time"), "avg_bt");
      auto& outer = pb.NewBlock("sbi");
      outer.Scan("sessions")
          .Filter(Gt(outer.ColRef("buffer_time"),
                     outer.SubqueryRef(inner.id(), "avg_bt")))
          .Agg("avg", outer.ColRef("play_time"), "avg_play");
      break;
    }
    case QueryShape::kCorrelated: {
      auto& inner = pb.NewBlock("per_site_avg");
      inner.Scan("sessions")
          .GroupBy("site")
          .Agg("avg", inner.ColRef("buffer_time"), "site_avg");
      auto& outer = pb.NewBlock("outer");
      outer.Scan("sessions")
          .Filter(Lt(outer.ColRef("buffer_time"),
                     Mul(Lit(0.9), outer.SubqueryRef(inner.id(), "site_avg",
                                                     {outer.ColRef("site")}))))
          .Agg("sum", outer.ColRef("play_time"), "short_buffer_play");
      break;
    }
    case QueryShape::kJoinAggregates: {
      auto& inner = pb.NewBlock("per_site_avg");
      inner.Scan("sessions")
          .GroupBy("site")
          .Agg("avg", inner.ColRef("buffer_time"), "site_avg");
      auto& outer = pb.NewBlock("joined");
      outer.Scan("sessions")
          .JoinBlock(inner.id(), {"sessions.site"}, {"site"})
          .Filter(Gt(outer.ColRef("buffer_time"), outer.ColRef("site_avg")))
          .Agg("count", Lit(int64_t{1}), "slow_sessions");
      break;
    }
    case QueryShape::kHavingTop: {
      auto& total = pb.NewBlock("grand_total");
      total.Scan("sessions").Agg("sum", total.ColRef("play_time"), "total");
      auto& per_site = pb.NewBlock("per_site");
      per_site.Scan("sessions")
          .GroupBy("site")
          .Agg("sum", per_site.ColRef("play_time"), "site_total");
      auto& top = pb.NewBlock("having_top");
      top.ScanBlock(per_site.id())
          .Filter(Gt(top.ColRef("site_total"),
                     Mul(Lit(0.1), top.SubqueryRef(total.id(), "total"))))
          .Project(top.ColRef("site"), "site")
          .Project(top.ColRef("site_total"), "site_total");
      break;
    }
    case QueryShape::kUncertainAggArg: {
      auto& inner = pb.NewBlock("global_avg");
      inner.Scan("sessions").Agg("avg", inner.ColRef("play_time"), "g");
      auto& outer = pb.NewBlock("deviation");
      outer.Scan("sessions").Agg(
          "rms",
          Sub(outer.ColRef("play_time"), outer.SubqueryRef(inner.id(), "g")),
          "rms_dev");
      break;
    }
    case QueryShape::kSnapshotAggregateJoin: {
      auto& per_site = pb.NewBlock("per_site");
      per_site.Scan("sessions")
          .GroupBy("site")
          .Agg("count", Lit(int64_t{1}), "n");
      auto& regroup = pb.NewBlock("regroup");
      regroup.ScanBlock(per_site.id())
          .GroupBy("site")
          .Agg("sum", regroup.ColRef("n"), "total");
      auto& joined = pb.NewBlock("joined");
      joined.Scan("sites")
          .JoinBlock(regroup.id(), {"sites.site"}, {"site"})
          .Agg("count", Lit(int64_t{1}), "pairs")
          .Agg("sum", joined.ColRef("weight"), "weight");
      break;
    }
  }
  return pb.Build();
}

struct ModeConfig {
  const char* name;
  ExecutionMode mode;
  bool opt1;
  bool opt2;
};

constexpr ModeConfig kModes[] = {
    {"iolap_full", ExecutionMode::kIolap, true, true},
    {"iolap_opt1_only", ExecutionMode::kIolap, true, false},
    {"iolap_conservative", ExecutionMode::kIolap, false, true},
    {"hda", ExecutionMode::kHda, false, false},
};

constexpr QueryShape kShapes[] = {
    QueryShape::kSimpleSpja,      QueryShape::kGroupedSpja,
    QueryShape::kSbi,             QueryShape::kCorrelated,
    QueryShape::kJoinAggregates,  QueryShape::kHavingTop,
    QueryShape::kUncertainAggArg, QueryShape::kSnapshotAggregateJoin,
};

class DeltaEngineTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The central property: after every batch, the partial result equals the
// direct evaluation of the query on the data seen so far (Theorem 1).
TEST_P(DeltaEngineTest, PartialResultsMatchReference) {
  const ModeConfig& mode = kModes[std::get<0>(GetParam())];
  const QueryShape shape = kShapes[std::get<1>(GetParam())];

  Catalog catalog;
  FillCatalog(&catalog, 400, /*seed=*/17);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(shape, catalog, functions);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EngineOptions options;
  options.mode = mode.mode;
  options.tuple_partition = mode.opt1;
  options.lazy_lineage = mode.opt2;
  options.num_trials = 12;
  options.num_batches = 10;
  options.slack = 2.0;
  options.seed = 5;
  options.partition.block_rows = 16;

  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());

  // Accumulate D_i as batches arrive and compare each partial result.
  std::vector<Row> accumulated;
  const Table& fact = *(*catalog.Find("sessions"))->table;
  int batches_seen = 0;
  Status run_status = controller.Run([&](const PartialResult& partial) {
    for (uint64_t id : controller.layout().batches[partial.batch]) {
      accumulated.push_back(fact.row(id));
    }
    const double scale =
        static_cast<double>(fact.num_rows()) / accumulated.size();
    auto expected =
        EvaluateReference(*plan, catalog, accumulated, scale);
    EXPECT_TRUE(expected.ok()) << expected.status();
    ExpectTablesEqual(partial.rows, *expected,
                      std::string(mode.name) + " batch " +
                          std::to_string(partial.batch));
    ++batches_seen;
    return BatchAction::kContinue;
  });
  ASSERT_TRUE(run_status.ok()) << run_status;
  EXPECT_EQ(batches_seen, 10);
  // After the last batch the result is exact: fraction 1.
  EXPECT_DOUBLE_EQ(controller.last_result().fraction_processed, 1.0);
}

std::string DeltaEngineTestName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* shape_names[] = {
      "SimpleSpja",     "GroupedSpja", "Sbi",           "Correlated",
      "JoinAggregates", "HavingTop",   "UncertainAggArg",
      "SnapshotAggregateJoin"};
  return std::string(kModes[std::get<0>(info.param)].name) + "_" +
         shape_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndShapes, DeltaEngineTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 8)),
    DeltaEngineTestName);

// Zero slack forces variation-range integrity failures; recovery must keep
// every partial result exact.
TEST(DeltaEngineRecoveryTest, ZeroSlackStillExact) {
  Catalog catalog;
  FillCatalog(&catalog, 300, /*seed=*/23);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSbi, catalog, functions);
  ASSERT_TRUE(plan.ok());

  EngineOptions options;
  options.num_trials = 8;
  options.num_batches = 12;
  options.slack = 0.0;  // pathological: ranges are bare envelopes
  options.seed = 3;

  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());

  std::vector<Row> accumulated;
  const Table& fact = *(*catalog.Find("sessions"))->table;
  ASSERT_TRUE(controller
                  .Run([&](const PartialResult& partial) {
                    for (uint64_t id :
                         controller.layout().batches[partial.batch]) {
                      accumulated.push_back(fact.row(id));
                    }
                    const double scale = static_cast<double>(fact.num_rows()) /
                                         accumulated.size();
                    auto expected =
                        EvaluateReference(*plan, catalog, accumulated, scale);
                    EXPECT_TRUE(expected.ok());
                    ExpectTablesEqual(partial.rows, *expected,
                                      "slack0 batch " +
                                          std::to_string(partial.batch));
                    return BatchAction::kContinue;
                  })
                  .ok());
  // With slack 0, at least one recovery is overwhelmingly likely.
  EXPECT_GT(controller.metrics().TotalFailureRecoveries(), 0);
}

// Recovery with join states in play: rolling back must truncate join
// caches and re-emit group rows consistently. Zero slack provokes
// failures; exactness must hold on the join-of-aggregates shape.
TEST(DeltaEngineRecoveryTest, ZeroSlackWithJoinsStillExact) {
  Catalog catalog;
  FillCatalog(&catalog, 400, /*seed=*/53);
  auto functions = FunctionRegistry::Default();
  for (QueryShape shape :
       {QueryShape::kJoinAggregates, QueryShape::kCorrelated}) {
    auto plan = BuildQuery(shape, catalog, functions);
    ASSERT_TRUE(plan.ok());
    EngineOptions options;
    options.num_trials = 8;
    options.num_batches = 10;
    options.slack = 0.0;
    options.seed = 17;
    QueryController controller(&catalog, *plan, options);
    ASSERT_TRUE(controller.Init().ok());
    std::vector<Row> accumulated;
    const Table& fact = *(*catalog.Find("sessions"))->table;
    ASSERT_TRUE(controller
                    .Run([&](const PartialResult& partial) {
                      for (uint64_t id :
                           controller.layout().batches[partial.batch]) {
                        accumulated.push_back(fact.row(id));
                      }
                      const double scale =
                          static_cast<double>(fact.num_rows()) /
                          accumulated.size();
                      auto expected = EvaluateReference(*plan, catalog,
                                                        accumulated, scale);
                      EXPECT_TRUE(expected.ok());
                      ExpectTablesEqual(partial.rows, *expected,
                                        "join recovery batch " +
                                            std::to_string(partial.batch));
                      return BatchAction::kContinue;
                    })
                    .ok());
  }
}

// Property sweep: random seeds / batch counts on the SBI query, full mode.
class SeedSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweepTest, SbiExactAcrossSeeds) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Catalog catalog;
  FillCatalog(&catalog, 250, seed * 31 + 7);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSbi, catalog, functions);
  ASSERT_TRUE(plan.ok());

  EngineOptions options;
  options.num_trials = 10;
  options.num_batches = 3 + static_cast<size_t>(seed % 9);
  options.slack = 1.0 + 0.25 * static_cast<double>(seed % 5);
  options.seed = seed;

  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());

  std::vector<Row> accumulated;
  const Table& fact = *(*catalog.Find("sessions"))->table;
  ASSERT_TRUE(controller
                  .Run([&](const PartialResult& partial) {
                    for (uint64_t id :
                         controller.layout().batches[partial.batch]) {
                      accumulated.push_back(fact.row(id));
                    }
                    const double scale = static_cast<double>(fact.num_rows()) /
                                         accumulated.size();
                    auto expected =
                        EvaluateReference(*plan, catalog, accumulated, scale);
                    EXPECT_TRUE(expected.ok());
                    ExpectTablesEqual(partial.rows, *expected,
                                      "seed " + std::to_string(seed));
                    return BatchAction::kContinue;
                  })
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest, ::testing::Range(0, 12));

// The baseline mode answers in a single batch and matches the full-data
// reference exactly.
TEST(BaselineTest, SingleExactBatch) {
  Catalog catalog;
  FillCatalog(&catalog, 200, 11);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSbi, catalog, functions);
  ASSERT_TRUE(plan.ok());

  EngineOptions options;
  options.mode = ExecutionMode::kBaseline;
  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());
  ASSERT_TRUE(controller.Run(nullptr).ok());
  EXPECT_EQ(controller.metrics().batches.size(), 1u);

  const Table& fact = *(*catalog.Find("sessions"))->table;
  auto expected = EvaluateReference(*plan, catalog, fact.rows(), 1.0);
  ASSERT_TRUE(expected.ok());
  ExpectTablesEqual(controller.last_result().rows, *expected, "baseline");
}

// Error estimates should shrink as more data is processed and the final
// batch must report (near) zero spread.
TEST(ErrorEstimateTest, ShrinksOverBatches) {
  Catalog catalog;
  FillCatalog(&catalog, 1000, 29);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSimpleSpja, catalog, functions);
  ASSERT_TRUE(plan.ok());

  EngineOptions options;
  options.num_trials = 40;
  options.num_batches = 10;
  options.seed = 7;

  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());
  std::vector<double> rel_err;
  ASSERT_TRUE(controller
                  .Run([&](const PartialResult& partial) {
                    // avg_buffer is column index 2 of the estimates row.
                    rel_err.push_back(partial.estimates[0][2].rel_stddev);
                    return BatchAction::kContinue;
                  })
                  .ok());
  ASSERT_EQ(rel_err.size(), 10u);
  EXPECT_LT(rel_err.back(), rel_err.front());
}

// Analytic (closed-form) error estimation: results stay exact at every
// batch with zero bootstrap trials, classification still prunes, and the
// estimates behave (positive mid-run, shrinking, zero at the end).
TEST(AnalyticErrorTest, ExactResultsAndSaneEstimates) {
  Catalog catalog;
  FillCatalog(&catalog, 2000, 41);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSbi, catalog, functions);
  ASSERT_TRUE(plan.ok());

  EngineOptions options;
  options.error_method = ErrorMethod::kAnalytic;
  options.num_batches = 10;
  options.seed = 21;

  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());

  std::vector<Row> accumulated;
  const Table& fact = *(*catalog.Find("sessions"))->table;
  std::vector<double> rel_err;
  ASSERT_TRUE(controller
                  .Run([&](const PartialResult& partial) {
                    for (uint64_t id :
                         controller.layout().batches[partial.batch]) {
                      accumulated.push_back(fact.row(id));
                    }
                    const double scale = static_cast<double>(fact.num_rows()) /
                                         accumulated.size();
                    auto expected =
                        EvaluateReference(*plan, catalog, accumulated, scale);
                    EXPECT_TRUE(expected.ok());
                    ExpectTablesEqual(partial.rows, *expected,
                                      "analytic batch " +
                                          std::to_string(partial.batch));
                    if (!partial.estimates.empty()) {
                      rel_err.push_back(partial.estimates[0][0].rel_stddev);
                    }
                    return BatchAction::kContinue;
                  })
                  .ok());
  ASSERT_EQ(rel_err.size(), 10u);
  EXPECT_GT(rel_err.front(), 0.0);           // uncertainty reported early
  EXPECT_LT(rel_err.back(), rel_err.front());  // and it shrinks
  EXPECT_NEAR(rel_err.back(), 0.0, 1e-12);   // exact at the final batch
  // Classification still prunes: far fewer re-evaluations than the
  // conservative everything-is-pending bound.
  uint64_t recomputed = controller.metrics().TotalRecomputedRows();
  uint64_t conservative_bound = 0;
  for (size_t b = 0; b + 1 < 10; ++b) {
    conservative_bound += controller.layout().batches[b].size() * (9 - b);
  }
  EXPECT_LT(recomputed, conservative_bound / 2);
}

// Analytic mode must also survive the grouped / correlated shapes.
TEST(AnalyticErrorTest, GroupedAndCorrelatedShapesExact) {
  Catalog catalog;
  FillCatalog(&catalog, 500, 43);
  auto functions = FunctionRegistry::Default();
  for (QueryShape shape :
       {QueryShape::kGroupedSpja, QueryShape::kCorrelated,
        QueryShape::kHavingTop}) {
    auto plan = BuildQuery(shape, catalog, functions);
    ASSERT_TRUE(plan.ok());
    EngineOptions options;
    options.error_method = ErrorMethod::kAnalytic;
    options.num_batches = 6;
    options.seed = 3;
    QueryController controller(&catalog, *plan, options);
    ASSERT_TRUE(controller.Init().ok());
    std::vector<Row> accumulated;
    const Table& fact = *(*catalog.Find("sessions"))->table;
    ASSERT_TRUE(controller
                    .Run([&](const PartialResult& partial) {
                      for (uint64_t id :
                           controller.layout().batches[partial.batch]) {
                        accumulated.push_back(fact.row(id));
                      }
                      const double scale =
                          static_cast<double>(fact.num_rows()) /
                          accumulated.size();
                      auto expected = EvaluateReference(*plan, catalog,
                                                        accumulated, scale);
                      EXPECT_TRUE(expected.ok());
                      ExpectTablesEqual(partial.rows, *expected, "analytic");
                      return BatchAction::kContinue;
                    })
                    .ok());
  }
}

// The HAVING top passes the upstream's site_total through, so in analytic
// mode it carries the closed-form band of that registry cell: open before
// the last batch, closed on it by the finite-population correction. A
// computed column (site_total * 1.0) has no trials to re-project in
// analytic mode and reports a zero-width band (ROADMAP item 2); its rows
// must still match.
TEST(AnalyticErrorTest, HavingPassThroughCarriesTheClosedForm) {
  Catalog catalog;
  FillCatalog(&catalog, 800, 43);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kHavingTop, catalog, functions);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->top().projections.size(), 2u);
  QueryPlan computed = *plan;
  computed.blocks.back().projections[1] =
      Mul(plan->top().projections[1], Lit(1.0));

  EngineOptions options;
  options.error_method = ErrorMethod::kAnalytic;
  options.num_batches = 6;
  options.seed = 3;
  auto run = [&](const QueryPlan& query) {
    QueryController controller(&catalog, query, options);
    EXPECT_TRUE(controller.Init().ok());
    std::vector<PartialResult> results;
    EXPECT_TRUE(controller
                    .Run([&](const PartialResult& partial) {
                      results.push_back(partial);
                      return BatchAction::kContinue;
                    })
                    .ok());
    return results;
  };
  const std::vector<PartialResult> passed = run(*plan);
  const std::vector<PartialResult> recomputed = run(computed);
  ASSERT_EQ(passed.size(), 6u);
  ASSERT_EQ(recomputed.size(), 6u);
  size_t open_bands = 0;
  for (const PartialResult& partial : passed) {
    ASSERT_EQ(partial.estimated_columns, std::vector<int>{1});
    const bool last = partial.batch == 5;
    for (const std::vector<ErrorEstimate>& row : partial.estimates) {
      if (last) {
        EXPECT_EQ(row[0].stddev, 0.0) << "batch " << partial.batch;
      } else {
        EXPECT_GT(row[0].stddev, 0.0) << "batch " << partial.batch;
        EXPECT_LT(row[0].ci_lo, row[0].value);
        ++open_bands;
      }
    }
    ExpectTablesEqual(recomputed[partial.batch].rows, partial.rows,
                      "computed column, batch " +
                          std::to_string(partial.batch));
  }
  EXPECT_GT(open_bands, 0u);
}

// A pass-through column takes its registry cell's estimate; written as
// `agg * 1.0` the same column is re-projected per trial. Both must give
// the same estimates bit for bit, on the HAVING-top shape and on Q18
// (HAVING over its own aggregate), inline and on a pool.
TEST(BootstrapEstimateTest, HavingEstimatesMatchPerTrialReplicas) {
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  auto expect_same = [&](const std::vector<PartialResult>& a,
                         const std::vector<PartialResult>& b,
                         const std::string& context) {
    ASSERT_EQ(a.size(), b.size()) << context;
    size_t cells = 0;
    for (size_t p = 0; p < a.size(); ++p) {
      ExpectTablesEqual(b[p].rows, a[p].rows, context);
      ASSERT_EQ(a[p].estimated_columns, b[p].estimated_columns) << context;
      ASSERT_EQ(a[p].estimates.size(), b[p].estimates.size()) << context;
      for (size_t r = 0; r < a[p].estimates.size(); ++r) {
        for (size_t k = 0; k < a[p].estimates[r].size(); ++k) {
          const ErrorEstimate& ea = a[p].estimates[r][k];
          const ErrorEstimate& eb = b[p].estimates[r][k];
          const std::string where = context + " batch " + std::to_string(p) +
                                    " row " + std::to_string(r);
          EXPECT_EQ(bits(ea.value), bits(eb.value)) << where;
          EXPECT_EQ(bits(ea.stddev), bits(eb.stddev)) << where;
          EXPECT_EQ(bits(ea.rel_stddev), bits(eb.rel_stddev)) << where;
          EXPECT_EQ(bits(ea.ci_lo), bits(eb.ci_lo)) << where;
          EXPECT_EQ(bits(ea.ci_hi), bits(eb.ci_hi)) << where;
          cells += ea.stddev > 0.0 ? 1 : 0;
        }
      }
    }
    EXPECT_GT(cells, 0u) << context << ": no open band compared";
  };
  auto collect = [](auto* runnable) {
    std::vector<PartialResult> results;
    EXPECT_TRUE(runnable
                    ->Run([&](const PartialResult& partial) {
                      results.push_back(partial);
                      return BatchAction::kContinue;
                    })
                    .ok());
    return results;
  };

  Catalog catalog;
  FillCatalog(&catalog, 600, 29);
  auto functions = FunctionRegistry::Default();
  auto having = BuildQuery(QueryShape::kHavingTop, catalog, functions);
  ASSERT_TRUE(having.ok()) << having.status();
  QueryPlan having_computed = *having;
  having_computed.blocks.back().projections[1] =
      Mul(having->top().projections[1], Lit(1.0));

  TpchConfig config;
  auto tpch = MakeTpchCatalog(config.Scaled(0.05), "lineorder");
  ASSERT_TRUE(tpch.ok()) << tpch.status();
  const std::string q18 = FindTpchQuery("q18").sql;
  const std::string pass = "sum(lo_quantity) AS total_qty";
  ASSERT_NE(q18.find(pass), std::string::npos);
  std::string q18_computed = q18;
  q18_computed.replace(q18.find(pass), pass.size(),
                       "sum(lo_quantity) * 1.0 AS total_qty");

  for (size_t threads : {size_t{0}, size_t{3}}) {
    EngineOptions options;
    options.num_trials = 20;
    options.num_batches = 8;
    options.seed = 11;
    options.num_threads = threads;
    const std::string suffix = " threads " + std::to_string(threads);

    QueryController as_written(&catalog, *having, options);
    QueryController per_trial(&catalog, having_computed, options);
    ASSERT_TRUE(as_written.Init().ok());
    ASSERT_TRUE(per_trial.Init().ok());
    expect_same(collect(&as_written), collect(&per_trial),
                "HavingTop" + suffix);

    Session session(tpch->get(), options);
    auto q18_as_written = session.Sql(q18);
    auto q18_per_trial = session.Sql(q18_computed);
    ASSERT_TRUE(q18_as_written.ok()) << q18_as_written.status();
    ASSERT_TRUE(q18_per_trial.ok()) << q18_per_trial.status();
    expect_same(collect(q18_as_written->get()), collect(q18_per_trial->get()),
                "q18" + suffix);
  }
}

// The observer can stop the run early (the paper's interactive control).
TEST(ObserverTest, EarlyStop) {
  Catalog catalog;
  FillCatalog(&catalog, 200, 31);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSimpleSpja, catalog, functions);
  ASSERT_TRUE(plan.ok());

  EngineOptions options;
  options.num_batches = 10;
  options.num_trials = 4;
  QueryController controller(&catalog, *plan, options);
  ASSERT_TRUE(controller.Init().ok());
  int calls = 0;
  ASSERT_TRUE(controller
                  .Run([&](const PartialResult&) {
                    ++calls;
                    return calls >= 3 ? BatchAction::kStop
                                      : BatchAction::kContinue;
                  })
                  .ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(controller.metrics().batches.size(), 3u);
}

// OPT1 should keep the non-deterministic set far smaller than the
// conservative tagging on the SBI query.
TEST(PruningTest, Opt1ShrinksNondeterministicSet) {
  // The undecided band around the refining aggregate shrinks like 1/sqrt(n),
  // so the effect needs a reasonable data size to be visible.
  Catalog catalog;
  FillCatalog(&catalog, 4000, 37);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSbi, catalog, functions);
  ASSERT_TRUE(plan.ok());

  auto run = [&](bool opt1) {
    EngineOptions options;
    options.tuple_partition = opt1;
    // Realistic trial count: with very few replicas the envelope is too
    // noisy and recovery storms dominate (see bench_fig9d for the sweep).
    options.num_trials = 50;
    options.num_batches = 8;
    options.seed = 9;
    QueryController controller(&catalog, *plan, options);
    EXPECT_TRUE(controller.Init().ok());
    EXPECT_TRUE(controller.Run(nullptr).ok());
    return controller.metrics().TotalRecomputedRows();
  };
  const uint64_t pruned = run(true);
  const uint64_t conservative = run(false);
  EXPECT_LT(pruned, conservative / 2) << "OPT1 should prune most tuples";
}

// Bit-exact fingerprint of one run: every partial result's rows and error
// estimates (exact double bits, via ToString with full precision would
// round — so store the raw values) plus the recomputation counters.
struct RunFingerprint {
  std::vector<Table> partial_rows;
  std::vector<std::vector<std::vector<ErrorEstimate>>> estimates;
  uint64_t recomputed_rows = 0;
  int failure_recoveries = 0;
};

void ExpectBitIdentical(const RunFingerprint& a, const RunFingerprint& b,
                        const std::string& context) {
  EXPECT_EQ(a.recomputed_rows, b.recomputed_rows) << context;
  EXPECT_EQ(a.failure_recoveries, b.failure_recoveries) << context;
  ASSERT_EQ(a.partial_rows.size(), b.partial_rows.size()) << context;
  for (size_t p = 0; p < a.partial_rows.size(); ++p) {
    const Table& ta = a.partial_rows[p];
    const Table& tb = b.partial_rows[p];
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << context << " batch " << p;
    for (size_t r = 0; r < ta.num_rows(); ++r) {
      ASSERT_EQ(ta.row(r).size(), tb.row(r).size()) << context;
      for (size_t c = 0; c < ta.row(r).size(); ++c) {
        // Bit-identical, not approximately equal: Equals on doubles is
        // exact equality, which is the whole point of this test.
        EXPECT_TRUE(ta.row(r)[c].Equals(tb.row(r)[c]))
            << context << " batch " << p << " row " << r << " col " << c
            << ": " << ta.row(r)[c].ToString() << " vs "
            << tb.row(r)[c].ToString();
      }
    }
    ASSERT_EQ(a.estimates[p].size(), b.estimates[p].size()) << context;
    for (size_t r = 0; r < a.estimates[p].size(); ++r) {
      ASSERT_EQ(a.estimates[p][r].size(), b.estimates[p][r].size()) << context;
      for (size_t k = 0; k < a.estimates[p][r].size(); ++k) {
        const ErrorEstimate& ea = a.estimates[p][r][k];
        const ErrorEstimate& eb = b.estimates[p][r][k];
        EXPECT_EQ(ea.value, eb.value) << context;
        EXPECT_EQ(ea.stddev, eb.stddev) << context;
        EXPECT_EQ(ea.ci_lo, eb.ci_lo) << context;
        EXPECT_EQ(ea.ci_hi, eb.ci_hi) << context;
      }
    }
  }
}

// The tentpole invariant: results are bit-identical regardless of thread
// count. The parallel phases only evaluate; all accumulation and constraint
// registration replays in serial row/trial order, and bootstrap weights are
// a stateless function of (seed, row uid, trial) (PoissonOneAt), so
// num_threads is purely a performance knob.
TEST(ParallelDeterminismTest, ThreadCountDoesNotChangeResults) {
  Catalog catalog;
  FillCatalog(&catalog, 1200, /*seed=*/23);
  auto functions = FunctionRegistry::Default();

  // An SBI query (non-deterministic set + per-trial re-evaluation) and a
  // grouped join (trial flush over many groups) — together they cover every
  // parallelized loop.
  for (QueryShape shape : {QueryShape::kSbi, QueryShape::kGroupedSpja}) {
    auto plan = BuildQuery(shape, catalog, functions);
    ASSERT_TRUE(plan.ok()) << plan.status();

    auto run = [&](size_t num_threads) {
      EngineOptions options;
      options.num_trials = 20;
      options.num_batches = 6;
      options.slack = 2.0;
      options.seed = 11;
      options.num_threads = num_threads;
      QueryController controller(&catalog, *plan, options);
      EXPECT_TRUE(controller.Init().ok());
      RunFingerprint fp;
      Status run_status = controller.Run([&](const PartialResult& partial) {
        fp.partial_rows.push_back(partial.rows);
        fp.estimates.push_back(partial.estimates);
        return BatchAction::kContinue;
      });
      EXPECT_TRUE(run_status.ok()) << run_status;
      fp.recomputed_rows = controller.metrics().TotalRecomputedRows();
      fp.failure_recoveries = controller.metrics().TotalFailureRecoveries();
      return fp;
    };

    const RunFingerprint inline_run = run(0);
    const RunFingerprint one_thread = run(1);
    const RunFingerprint four_threads = run(4);
    ASSERT_EQ(inline_run.partial_rows.size(), 6u);
    const char* shape_name =
        shape == QueryShape::kSbi ? "sbi" : "grouped_spja";
    ExpectBitIdentical(inline_run, one_thread,
                       std::string(shape_name) + " threads 0 vs 1");
    ExpectBitIdentical(inline_run, four_threads,
                       std::string(shape_name) + " threads 0 vs 4");
  }
}

// Same invariant end-to-end through Session/SQL on the paper's workloads:
// one nested TPC-H query and one nested Conviva query, small scale.
TEST(ParallelDeterminismTest, WorkloadQueriesViaSession) {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());

  struct Case {
    std::string name;
    std::shared_ptr<Catalog> catalog;
    std::string sql;
  };
  std::vector<Case> cases;

  const std::vector<BenchQuery> tpch_queries = TpchQueries();
  for (const BenchQuery& q : tpch_queries) {
    if (!q.nested) continue;
    TpchConfig config;
    auto catalog = MakeTpchCatalog(config.Scaled(0.02), q.streamed_table);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    cases.push_back({"tpch_" + q.id, *catalog, q.sql});
    break;
  }
  const std::vector<BenchQuery> conviva_queries = ConvivaQueries();
  for (const BenchQuery& q : conviva_queries) {
    if (!q.nested) continue;
    ConvivaConfig config;
    auto catalog = MakeConvivaCatalog(config.Scaled(0.02));
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    cases.push_back({"conviva_" + q.id, *catalog, q.sql});
    break;
  }
  ASSERT_EQ(cases.size(), 2u);

  for (const Case& c : cases) {
    auto run = [&](size_t num_threads) {
      EngineOptions options;
      options.num_trials = 15;
      options.num_batches = 5;
      options.slack = 2.0;
      options.seed = 77;
      options.num_threads = num_threads;
      Session session(c.catalog.get(), options, functions);
      RunFingerprint fp;
      auto compiled = session.Sql(c.sql);
      EXPECT_TRUE(compiled.ok()) << c.name << ": " << compiled.status();
      if (!compiled.ok()) return fp;
      Status run_status = (*compiled)->Run([&](const PartialResult& partial) {
        fp.partial_rows.push_back(partial.rows);
        fp.estimates.push_back(partial.estimates);
        return BatchAction::kContinue;
      });
      EXPECT_TRUE(run_status.ok()) << c.name << ": " << run_status;
      fp.recomputed_rows = (*compiled)->metrics().TotalRecomputedRows();
      fp.failure_recoveries = (*compiled)->metrics().TotalFailureRecoveries();
      return fp;
    };

    const RunFingerprint inline_run = run(0);
    const RunFingerprint one_thread = run(1);
    const RunFingerprint four_threads = run(4);
    ASSERT_EQ(inline_run.partial_rows.size(), 5u) << c.name;
    ExpectBitIdentical(inline_run, one_thread, c.name + " threads 0 vs 1");
    ExpectBitIdentical(inline_run, four_threads, c.name + " threads 0 vs 4");
  }
}

// A group that receives no row in a batch is published from the same
// accumulators as in the batch before. With a deterministic filter nothing
// is pending, so an untouched group's scale-invariant cell (AVG) keeps its
// estimate bit for bit, and a scale-linear cell (SUM, COUNT) moves by
// exactly m_i / m_{i-1}, trial replicas included.
TEST(PublicationTest, UntouchedGroupKeepsItsEstimate) {
  ConvivaConfig config;
  auto catalog = MakeConvivaCatalog(config.Scaled(0.05));
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const Table& fact = *(*(*catalog)->Find("sessions"))->table;
  const int site_col = *fact.schema().FindColumn("site");
  const int failed_col = *fact.schema().FindColumn("failed");

  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  auto expect_scaled = [](double now, double before, double ratio,
                          const std::string& context) {
    const double expected = before * ratio;
    EXPECT_NEAR(now, expected, 1e-12 * std::fabs(expected)) << context;
  };

  for (size_t num_threads : {size_t{0}, size_t{3}}) {
    EngineOptions options;
    options.num_trials = 30;
    options.num_batches = 40;
    options.num_threads = num_threads;
    Session session(catalog->get(), options);
    auto query = session.Sql(
        "SELECT site, avg(play_time), sum(bytes), count(*) FROM sessions "
        "WHERE failed = 0 GROUP BY site");
    ASSERT_TRUE(query.ok()) << query.status();
    const QueryController& controller = (*query)->controller();

    PartialResult prev;
    std::map<int64_t, size_t> prev_rows;  // site -> row of `prev`
    double prev_scale = 0.0;
    size_t seen = 0;
    int pairs = 0;
    Status run_status = (*query)->Run([&](const PartialResult& partial) {
      std::set<int64_t> touched;
      for (uint64_t id : controller.layout().batches[partial.batch]) {
        ++seen;
        const Row& row = fact.row(id);
        if (row[failed_col].int64() == 0) touched.insert(row[site_col].int64());
      }
      const double scale = static_cast<double>(fact.num_rows()) / seen;
      std::map<int64_t, size_t> rows;
      for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
        rows[partial.rows.row(r)[0].int64()] = r;
      }
      for (const auto& [site, r] : rows) {
        const auto before = prev_rows.find(site);
        if (partial.batch == 0 || touched.count(site) > 0 ||
            before == prev_rows.end()) {
          continue;
        }
        ++pairs;
        const std::string context =
            "threads " + std::to_string(num_threads) + " batch " +
            std::to_string(partial.batch) + " site " + std::to_string(site);
        const auto& now = partial.estimates[r];
        const auto& was = prev.estimates[before->second];
        EXPECT_EQ(now.size(), 3u) << context;
        if (now.size() != 3u) continue;
        EXPECT_EQ(bits(now[0].value), bits(was[0].value)) << context;
        EXPECT_EQ(bits(now[0].stddev), bits(was[0].stddev)) << context;
        EXPECT_EQ(bits(now[0].rel_stddev), bits(was[0].rel_stddev))
            << context;
        EXPECT_EQ(bits(now[0].ci_lo), bits(was[0].ci_lo)) << context;
        EXPECT_EQ(bits(now[0].ci_hi), bits(was[0].ci_hi)) << context;
        const double ratio = scale / prev_scale;
        for (size_t a = 1; a < 3; ++a) {
          const std::string cell = context + " agg " + std::to_string(a);
          expect_scaled(now[a].value, was[a].value, ratio, cell);
          expect_scaled(now[a].stddev, was[a].stddev, ratio, cell);
          expect_scaled(now[a].ci_lo, was[a].ci_lo, ratio, cell);
          expect_scaled(now[a].ci_hi, was[a].ci_hi, ratio, cell);
        }
      }
      prev = partial;
      prev_rows = std::move(rows);
      prev_scale = scale;
      return BatchAction::kContinue;
    });
    ASSERT_TRUE(run_status.ok()) << run_status;
    EXPECT_GT(pairs, 100) << "threads " << num_threads;
  }
}

// A group whose only contribution is a pending row lapses in the batch that
// row stops passing: its registry entry stays, stale, but the group must
// leave the result. Forty single-row groups sit around the global average,
// so the uncertain filter moves them in and out of the answer as the
// estimate moves. Every batch must equal the reference, and some group must
// really disappear between two batches.
TEST(PublicationTest, LapsedGroupsLeaveTheResult) {
  Catalog catalog;
  Table t(Schema({{"g", ValueType::kInt64}, {"v", ValueType::kDouble}}));
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    t.AddRow({Value::Int64(0), Value::Double(100.0 * rng.NextDouble())});
  }
  for (int k = 1; k <= 40; ++k) {
    t.AddRow({Value::Int64(k), Value::Double(47.0 + 6.0 * (k - 1) / 39.0)});
  }
  ASSERT_TRUE(catalog.RegisterTable("t", std::move(t), true).ok());
  const Table& fact = *(*catalog.Find("t"))->table;

  for (uint64_t seed : {1, 2, 3}) {
    for (size_t num_threads : {size_t{0}, size_t{3}}) {
      const std::string run = "seed " + std::to_string(seed) + " threads " +
                              std::to_string(num_threads);
      EngineOptions options;
      options.num_batches = 20;
      options.num_trials = 20;
      options.seed = seed;
      options.num_threads = num_threads;
      options.partition.block_rows = 8;
      Session session(&catalog, options);
      auto query = session.Sql(
          "SELECT g, count(*) FROM t WHERE v > (SELECT avg(v) FROM t) "
          "GROUP BY g");
      ASSERT_TRUE(query.ok()) << query.status();
      const QueryController& controller = (*query)->controller();

      std::vector<Row> accumulated;
      std::set<int64_t> prev_groups;
      int lapses = 0;
      Status run_status = (*query)->Run([&](const PartialResult& partial) {
        const std::string context =
            run + " batch " + std::to_string(partial.batch);
        for (uint64_t id : controller.layout().batches[partial.batch]) {
          accumulated.push_back(fact.row(id));
        }
        const double scale =
            static_cast<double>(fact.num_rows()) / accumulated.size();
        auto expected =
            EvaluateReference(controller.plan(), catalog, accumulated, scale);
        EXPECT_TRUE(expected.ok()) << expected.status();
        if (expected.ok()) ExpectTablesEqual(partial.rows, *expected, context);
        std::set<int64_t> groups;
        for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
          groups.insert(partial.rows.row(r)[0].int64());
        }
        for (int64_t g : prev_groups) lapses += groups.count(g) == 0;
        prev_groups = std::move(groups);
        return BatchAction::kContinue;
      });
      ASSERT_TRUE(run_status.ok()) << run_status;
      EXPECT_GT(lapses, 0) << run;
      RecordProperty("lapses_seed" + std::to_string(seed) + "_threads" +
                         std::to_string(num_threads),
                     lapses);
    }
  }
}

// Failure-recovery seams under deterministic injection (failpoint.h).
// An *injected* integrity verdict rolls back to the requested target,
// replays with unfrozen ranges, and reproduces the fault-free bits; a
// *natural* envelope escape must freeze the recovered variation ranges
// through the replay window instead (the §5.1 livelock guard).
TEST(RecoveryInjectionTest, InjectedVerdictRollsBackAndReplaysBitIdentical) {
  Catalog catalog;
  FillCatalog(&catalog, 1500, /*seed=*/31);
  auto functions = FunctionRegistry::Default();
  auto plan = BuildQuery(QueryShape::kSbi, catalog, functions);
  ASSERT_TRUE(plan.ok()) << plan.status();

  auto run = [&](const std::string& failpoints, QueryMetrics* metrics) {
    EngineOptions options;
    // Enough replicas that the baseline run recovers zero times: every
    // recovery below is attributable to the armed failpoint.
    options.num_trials = 50;
    options.num_batches = 6;
    options.slack = 2.0;
    options.seed = 13;
    options.failpoints = failpoints;
    QueryController controller(&catalog, *plan, options);
    EXPECT_TRUE(controller.Init().ok());
    RunFingerprint fp;
    Status run_status = controller.Run([&](const PartialResult& partial) {
      fp.partial_rows.push_back(partial.rows);
      fp.estimates.push_back(partial.estimates);
      return BatchAction::kContinue;
    });
    EXPECT_TRUE(run_status.ok()) << run_status;
    if (metrics != nullptr) *metrics = controller.metrics();
    return fp;
  };

  QueryMetrics baseline;
  const RunFingerprint clean = run("", &baseline);
  // The chosen parameters keep the fault-free run recovery-free, so every
  // counter below isolates the injected fault.
  ASSERT_EQ(baseline.TotalFailureRecoveries(), 0);

  // Injected verdict at batch 4, rollback depth 2 → restores checkpoint 2.
  QueryMetrics injected;
  RunFingerprint faulty =
      run("exec-integrity-verdict=at:4,times:1,arg:2", &injected);
  EXPECT_EQ(injected.TotalFailureRecoveries(), 1);
  EXPECT_EQ(injected.TotalInjectedFaults(), 1);
  EXPECT_EQ(injected.MaxRollbackDepth(), 2);  // rollback target was batch 2
  // Injected recoveries replay with *unfrozen* ranges...
  EXPECT_EQ(injected.TotalFrozenReplayBatches(), 0);
  EXPECT_FALSE(injected.DegradedMode());
  // ...and therefore reproduce the fault-free bits. The recomputation /
  // recovery counters legitimately differ (the replay did extra work), so
  // only the observable results are compared.
  faulty.recomputed_rows = clean.recomputed_rows;
  faulty.failure_recoveries = clean.failure_recoveries;
  ExpectBitIdentical(faulty, clean, "injected verdict replay");

  // A natural envelope escape at batch 3 freezes the recovered ranges for
  // the whole replay window (depth ≥ 1 batches).
  QueryMetrics natural;
  run("registry-envelope-fault=at:3,times:4", &natural);
  EXPECT_GE(natural.TotalFailureRecoveries(), 1);
  EXPECT_EQ(natural.TotalInjectedFaults(), 0);
  EXPECT_GE(natural.TotalFrozenReplayBatches(), 1);
  EXPECT_GE(natural.MaxRollbackDepth(), 1);
}

// A capture stores the sum of cached per-group hashes; verification
// recomputes every group from content. Every retained snapshot must verify
// after every batch, including those captured after a mid-run restore,
// whose sketch starts out sharing every group node with the restored
// snapshot.
TEST(CheckpointIntegrityTest, RetainedSnapshotsVerifyAcrossRestore) {
  Catalog catalog;
  FillCatalog(&catalog, 1500, /*seed=*/31);
  auto functions = FunctionRegistry::Default();
  for (QueryShape shape : {QueryShape::kCorrelated, QueryShape::kHavingTop}) {
    auto plan = BuildQuery(shape, catalog, functions);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EngineOptions options;
    options.num_trials = 20;
    options.num_batches = 8;
    options.seed = 13;
    // Rolls back from batch 5 to the batch-3 snapshot, once.
    options.failpoints = "exec-integrity-verdict=at:5,times:1,arg:2";
    QueryController controller(&catalog, *plan, options);
    ASSERT_TRUE(controller.Init().ok());
    size_t verified = 0;
    const Status run_status = controller.Run([&](const PartialResult& partial) {
      for (const auto& snapshot : controller.checkpoint_ring()) {
        for (const auto& checkpoint : snapshot) {
          EXPECT_TRUE(BlockExecutor::VerifyCheckpoint(*checkpoint))
              << "after batch " << partial.batch << ": snapshot of batch "
              << checkpoint->batch;
          ++verified;
        }
      }
      return BatchAction::kContinue;
    });
    ASSERT_TRUE(run_status.ok()) << run_status;
    EXPECT_EQ(controller.metrics().TotalFailureRecoveries(), 1);
    EXPECT_EQ(controller.metrics().MaxRollbackDepth(), 2);
    EXPECT_GT(verified, 0u);
  }
}

// A zero bootstrap weight never folds in the engine either: a streamed
// sum(x) over one ±inf row stays finite in exactly the trials where that
// row's Poisson weight is 0 (0 × inf would make them NaN).
TEST(BootstrapFoldTest, InfiniteRowSkipsItsZeroWeightTrials) {
  constexpr uint64_t kInfRow = 17;
  constexpr int kTrials = 16;
  for (double inf : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Catalog catalog;
    Table t(Schema({{"t.x", ValueType::kDouble}}));
    for (uint64_t i = 0; i < 200; ++i) {
      t.AddRow({Value::Double(i == kInfRow ? inf : 1.0 + i % 7)});
    }
    ASSERT_TRUE(catalog.RegisterTable("t", std::move(t), true).ok());
    PlanBuilder pb(&catalog, FunctionRegistry::Default());
    auto& b = pb.NewBlock("total");
    b.Scan("t").Agg("sum", b.ColRef("x"), "s");
    auto plan = pb.Build();
    ASSERT_TRUE(plan.ok()) << plan.status();
    EngineOptions options;
    options.num_trials = kTrials;
    options.num_batches = 4;
    options.seed = 9;
    QueryController controller(&catalog, *plan, options);
    ASSERT_TRUE(controller.Init().ok());
    ASSERT_TRUE(controller.Run(nullptr).ok());

    const BootstrapWeights bootstrap(options.seed, kTrials);
    int zero_trials = 0;
    const auto& sketch = controller.checkpoint_ring().back().at(0)->sketch;
    ASSERT_EQ(sketch.num_groups(), 1u);
    const std::vector<double> trials =
        sketch.groups().begin()->second->aggs[0].TrialResults(1.0);
    ASSERT_EQ(trials.size(), static_cast<size_t>(kTrials));
    for (int trial = 0; trial < kTrials; ++trial) {
      if (bootstrap.WeightAt(kInfRow, trial) == 0) {
        ++zero_trials;
        EXPECT_TRUE(std::isfinite(trials[trial])) << "trial " << trial;
      } else {
        EXPECT_EQ(trials[trial], inf) << "trial " << trial;
      }
    }
    EXPECT_GT(zero_trials, 0);
  }
}

}  // namespace
}  // namespace iolap
