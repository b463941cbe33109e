// Workload tests: every TPC-H and Conviva benchmark query must compile,
// run incrementally, and match the reference evaluation at every batch.

#include <gtest/gtest.h>

#include <cmath>

#include "exec/reference.h"
#include "sql/binder.h"
#include "workloads/experiment_driver.h"

namespace iolap {
namespace {

// Small configs so the differential check stays fast.
Result<std::shared_ptr<Catalog>> SmallTpch(const std::string& streamed) {
  TpchConfig config;
  config = config.Scaled(0.05);
  return MakeTpchCatalog(config, streamed);
}

Result<std::shared_ptr<Catalog>> SmallConviva() {
  ConvivaConfig config;
  config = config.Scaled(0.03);
  return MakeConvivaCatalog(config);
}

void CheckQueryAgainstReference(std::shared_ptr<Catalog> catalog,
                                const BenchQuery& query) {
  SCOPED_TRACE(query.id + ": " + query.sql);
  auto functions = BenchFunctions();
  auto plan = BindSql(query.sql, *catalog, functions);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EngineOptions options;
  options.num_trials = 16;
  options.num_batches = 5;
  options.seed = 77;
  Session session(catalog.get(), options, functions);
  auto compiled = session.Sql(query.sql);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const Table& fact = *(*catalog->Find(query.streamed_table))->table;
  std::vector<Row> accumulated;
  QueryController& controller = (*compiled)->controller();
  Status status = (*compiled)->Run([&](const PartialResult& partial)
                                       -> BatchAction {
    for (uint64_t id : controller.layout().batches[partial.batch]) {
      accumulated.push_back(fact.row(id));
    }
    const double scale =
        static_cast<double>(fact.num_rows()) / accumulated.size();
    auto expected = EvaluateReference(*plan, *catalog, accumulated, scale);
    EXPECT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(partial.rows.num_rows(), expected->num_rows())
        << "batch " << partial.batch;
    if (partial.rows.num_rows() != expected->num_rows()) {
      return BatchAction::kStop;
    }
    for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
      for (size_t c = 0; c < partial.rows.row(r).size(); ++c) {
        const Value& a = partial.rows.row(r)[c];
        const Value& e = expected->row(r)[c];
        if (a.is_numeric() && e.is_numeric()) {
          EXPECT_NEAR(a.AsDouble(), e.AsDouble(),
                      1e-6 * std::max(1.0, std::fabs(e.AsDouble())))
              << "batch " << partial.batch << " row " << r << " col " << c;
        } else {
          EXPECT_TRUE(a.Equals(e))
              << a.ToString() << " vs " << e.ToString();
        }
      }
    }
    return BatchAction::kContinue;
  });
  ASSERT_TRUE(status.ok()) << status;
  // Final batch: exact result.
  EXPECT_DOUBLE_EQ((*compiled)->last_result().fraction_processed, 1.0);
}

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, MatchesReferenceEveryBatch) {
  const BenchQuery query = TpchQueries()[GetParam()];
  auto catalog = SmallTpch(query.streamed_table);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  CheckQueryAgainstReference(*catalog, query);
}

std::string TpchName(const ::testing::TestParamInfo<int>& info) {
  return TpchQueries()[info.param].id;
}

INSTANTIATE_TEST_SUITE_P(AllTpch, TpchQueryTest, ::testing::Range(0, 10),
                         TpchName);

class ConvivaQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvivaQueryTest, MatchesReferenceEveryBatch) {
  const BenchQuery query = ConvivaQueries()[GetParam()];
  auto catalog = SmallConviva();
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  CheckQueryAgainstReference(*catalog, query);
}

std::string ConvivaName(const ::testing::TestParamInfo<int>& info) {
  return ConvivaQueries()[info.param].id;
}

INSTANTIATE_TEST_SUITE_P(AllConviva, ConvivaQueryTest, ::testing::Range(0, 12),
                         ConvivaName);

// The HDA and OPT1-only modes must also stay exact on a nested query from
// each workload (the bench comparisons rely on all modes being correct).
TEST(WorkloadModesTest, NestedQueriesExactUnderAllModes) {
  for (bool conviva : {false, true}) {
    const BenchQuery query =
        conviva ? FindConvivaQuery("c2") : FindTpchQuery("q17");
    auto catalog = conviva ? SmallConviva() : SmallTpch(query.streamed_table);
    ASSERT_TRUE(catalog.ok());
    auto functions = BenchFunctions();
    auto plan = BindSql(query.sql, **catalog, functions);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const Table& fact = *(*(*catalog)->Find(query.streamed_table))->table;

    for (auto [mode, opt1, opt2] :
         {std::tuple{ExecutionMode::kHda, false, false},
          std::tuple{ExecutionMode::kIolap, true, false},
          std::tuple{ExecutionMode::kIolap, true, true}}) {
      EngineOptions options;
      options.mode = mode;
      options.tuple_partition = opt1;
      options.lazy_lineage = opt2;
      options.num_trials = 10;
      options.num_batches = 4;
      options.seed = 5;
      Session session(catalog->get(), options, functions);
      auto compiled = session.Sql(query.sql);
      ASSERT_TRUE(compiled.ok()) << compiled.status();
      ASSERT_TRUE((*compiled)->Run(nullptr).ok());
      auto expected = EvaluateReference(*plan, **catalog, fact.rows(), 1.0);
      ASSERT_TRUE(expected.ok());
      const Table& actual = (*compiled)->last_result().rows;
      ASSERT_EQ(actual.num_rows(), expected->num_rows()) << query.id;
      for (size_t r = 0; r < actual.num_rows(); ++r) {
        for (size_t c = 0; c < actual.row(r).size(); ++c) {
          const Value& a = actual.row(r)[c];
          const Value& e = expected->row(r)[c];
          if (a.is_numeric() && e.is_numeric()) {
            EXPECT_NEAR(a.AsDouble(), e.AsDouble(),
                        1e-6 * std::max(1.0, std::fabs(e.AsDouble())));
          }
        }
      }
    }
  }
}

// Generator sanity: scaled configs, schema shape, reproducibility.
TEST(GeneratorTest, TpchShapes) {
  TpchConfig config;
  config = config.Scaled(0.02);
  auto catalog = MakeTpchCatalog(config, "lineorder");
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  EXPECT_TRUE((*catalog)->Has("lineorder"));
  EXPECT_TRUE((*(*catalog)->Find("lineorder"))->streamed);
  EXPECT_FALSE((*(*catalog)->Find("part"))->streamed);
  EXPECT_EQ((*(*catalog)->Find("lineorder"))->table->num_rows(),
            config.lineorder_rows);
  EXPECT_EQ((*(*catalog)->Find("region"))->table->num_rows(), 5u);
}

TEST(GeneratorTest, TpchDeterministicUnderSeed) {
  TpchConfig config;
  config = config.Scaled(0.01);
  auto a = MakeTpchCatalog(config, "lineorder");
  auto b = MakeTpchCatalog(config, "lineorder");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Table& ta = *(*(*a)->Find("lineorder"))->table;
  const Table& tb = *(*(*b)->Find("lineorder"))->table;
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    EXPECT_TRUE(RowEq()(ta.row(r), tb.row(r)));
  }
}

TEST(GeneratorTest, TpchUnknownStreamRejected) {
  TpchConfig config;
  config = config.Scaled(0.01);
  EXPECT_FALSE(MakeTpchCatalog(config, "no_such_table").ok());
}

TEST(GeneratorTest, ConvivaShapes) {
  ConvivaConfig config;
  config = config.Scaled(0.02);
  auto catalog = MakeConvivaCatalog(config);
  ASSERT_TRUE(catalog.ok());
  const Table& sessions = *(*(*catalog)->Find("sessions"))->table;
  EXPECT_EQ(sessions.num_rows(), config.sessions);
  // Buffering / play time anti-correlation: sessions with above-median
  // buffering should have lower average play time.
  double buf_sum = 0;
  for (const Row& row : sessions.rows()) buf_sum += row[5].AsDouble();
  const double buf_avg = buf_sum / sessions.num_rows();
  double slow_play = 0, fast_play = 0;
  size_t slow_n = 0, fast_n = 0;
  for (const Row& row : sessions.rows()) {
    if (row[5].AsDouble() > buf_avg) {
      slow_play += row[6].AsDouble();
      ++slow_n;
    } else {
      fast_play += row[6].AsDouble();
      ++fast_n;
    }
  }
  ASSERT_GT(slow_n, 0u);
  ASSERT_GT(fast_n, 0u);
  EXPECT_LT(slow_play / slow_n, fast_play / fast_n);
}

TEST(GeneratorTest, ConvivaUdfsRegistered) {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());
  EXPECT_TRUE(functions->FindScalar("engagement_score").ok());
  auto is_hd = functions->FindScalar("is_hd");
  ASSERT_TRUE(is_hd.ok());
  const Value hd = Value::Double(3000);
  const Value sd = Value::Double(1000);
  EXPECT_EQ((*is_hd)->boxed(&hd, 1).int64(), 1);
  EXPECT_EQ((*is_hd)->boxed(&sd, 1).int64(), 0);
}

}  // namespace
}  // namespace iolap
