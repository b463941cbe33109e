// Tests for the Appendix B query-decomposition rewrite: structural shape,
// firing conditions, and semantic equivalence (rewritten plans must give
// the same incremental results as the originals).

#include <gtest/gtest.h>

#include <cmath>

#include "catalog/catalog.h"
#include "common/random.h"
#include "exec/reference.h"
#include "iolap/query_controller.h"
#include "plan/rewrite_rules.h"
#include "sql/binder.h"

namespace iolap {
namespace {

// Two sizeable relations joined on a low-cardinality key: the shape of
// Appendix B's Example 4, where caching both join sides is expensive and
// the decomposition collapses the join to per-key partial sums.
class RewriteTest : public ::testing::Test {
 protected:
  RewriteTest() : functions_(FunctionRegistry::Default()) {
    Rng rng(99);
    Table r(Schema({{"k", ValueType::kInt64},
                    {"x", ValueType::kDouble},
                    {"grp", ValueType::kInt64}}));
    for (int i = 0; i < 600; ++i) {
      r.AddRow({Value::Int64(static_cast<int64_t>(rng.NextBounded(8))),
                Value::Double(rng.NextDouble() * 10),
                Value::Int64(static_cast<int64_t>(rng.NextBounded(3)))});
    }
    EXPECT_TRUE(catalog_.RegisterTable("r", std::move(r), true).ok());

    Table s(Schema({{"k", ValueType::kInt64}, {"y", ValueType::kDouble}}));
    for (int i = 0; i < 400; ++i) {
      s.AddRow({Value::Int64(static_cast<int64_t>(rng.NextBounded(8))),
                Value::Double(rng.NextDouble() * 5)});
    }
    EXPECT_TRUE(catalog_.RegisterTable("s", std::move(s)).ok());
  }

  Result<QueryPlan> Bind(const std::string& sql) {
    return BindSql(sql, catalog_, functions_);
  }

  Catalog catalog_;
  std::shared_ptr<FunctionRegistry> functions_;
};

TEST_F(RewriteTest, DecomposesProductSum) {
  auto plan = Bind(
      "SELECT grp, sum(x * y), count(*) FROM r, s WHERE r.k = s.k "
      "GROUP BY grp");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->blocks.size(), 1u);

  RewriteStats stats;
  auto rewritten = ApplyRewriteRules(*plan, &stats);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_EQ(stats.decompositions, 1);
  ASSERT_EQ(rewritten->blocks.size(), 3u);
  // Two partial blocks + one recombining block over their outputs.
  EXPECT_EQ(rewritten->blocks[0].inputs[0].kind,
            BlockInput::Kind::kBaseTable);
  EXPECT_EQ(rewritten->blocks[1].inputs[0].kind,
            BlockInput::Kind::kBaseTable);
  EXPECT_EQ(rewritten->blocks[2].inputs[0].kind,
            BlockInput::Kind::kBlockOutput);
  EXPECT_EQ(rewritten->blocks[2].inputs[1].kind,
            BlockInput::Kind::kBlockOutput);
  // The rewritten output schema is column-compatible with the original.
  EXPECT_EQ(rewritten->top().output_schema.num_columns(),
            plan->top().output_schema.num_columns());
  for (size_t c = 0; c < plan->top().output_schema.num_columns(); ++c) {
    EXPECT_EQ(rewritten->top().output_schema.column(c).name,
              plan->top().output_schema.column(c).name);
  }
}

TEST_F(RewriteTest, RewrittenPlanIsEquivalentEveryBatch) {
  for (const char* sql :
       {"SELECT grp, sum(x * y) AS v FROM r, s WHERE r.k = s.k GROUP BY grp",
        "SELECT sum(x * y) FROM r, s WHERE r.k = s.k AND x > 2 AND y < 4",
        "SELECT grp, count(*), sum(x), sum(y) FROM r, s WHERE r.k = s.k "
        "GROUP BY grp"}) {
    SCOPED_TRACE(sql);
    auto plan = Bind(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    RewriteStats stats;
    auto rewritten = ApplyRewriteRules(*plan, &stats);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    ASSERT_GE(stats.decompositions, 1);

    EngineOptions options;
    options.num_trials = 8;
    options.num_batches = 6;
    options.seed = 4;
    QueryController original(&catalog_, *plan, options);
    QueryController decomposed(&catalog_, *rewritten, options);
    ASSERT_TRUE(original.Init().ok());
    ASSERT_TRUE(decomposed.Init().ok());

    std::vector<Table> original_results;
    ASSERT_TRUE(original
                    .Run([&](const PartialResult& partial) {
                      original_results.push_back(partial.rows);
                      return BatchAction::kContinue;
                    })
                    .ok());
    int batch = 0;
    ASSERT_TRUE(decomposed
                    .Run([&](const PartialResult& partial) {
                      const Table& expected = original_results[batch++];
                      EXPECT_EQ(partial.rows.num_rows(), expected.num_rows());
                      for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
                        for (size_t c = 0; c < partial.rows.row(r).size();
                             ++c) {
                          const double a = partial.rows.row(r)[c].AsDouble();
                          const double e = expected.row(r)[c].AsDouble();
                          EXPECT_NEAR(a, e,
                                      1e-6 * std::max(1.0, std::fabs(e)))
                              << "batch " << partial.batch << " row " << r
                              << " col " << c;
                        }
                      }
                      return BatchAction::kContinue;
                    })
                    .ok());
  }
}

TEST_F(RewriteTest, ShrinksJoinState) {
  auto plan = Bind(
      "SELECT sum(x * y) FROM r, s WHERE r.k = s.k");
  ASSERT_TRUE(plan.ok());
  RewriteStats stats;
  auto rewritten = ApplyRewriteRules(*plan, &stats);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_EQ(stats.decompositions, 1);

  EngineOptions options;
  options.num_trials = 8;
  options.num_batches = 6;
  auto peak = [&](const QueryPlan& p) {
    QueryController controller(&catalog_, p, options);
    EXPECT_TRUE(controller.Init().ok());
    EXPECT_TRUE(controller.Run(nullptr).ok());
    return controller.metrics().PeakJoinStateBytes();
  };
  const uint64_t original_state = peak(*plan);
  const uint64_t rewritten_state = peak(*rewritten);
  // Appendix B's point: the join now caches per-key partial sums (8 keys)
  // instead of the input relations (600 + 400 rows).
  EXPECT_LT(rewritten_state, original_state / 5);
}

TEST_F(RewriteTest, DoesNotFireOnUnsupportedShapes) {
  RewriteStats stats;
  for (const char* sql : {
           // AVG does not decompose.
           "SELECT avg(x) FROM r, s WHERE r.k = s.k",
           // Cross-side addition is not a product.
           "SELECT sum(x + y) FROM r, s WHERE r.k = s.k",
           // Cross-side filter conjunct.
           "SELECT sum(x * y) FROM r, s WHERE r.k = s.k AND x > y",
           // Single input: nothing to decompose.
           "SELECT grp, sum(x) FROM r GROUP BY grp",
       }) {
    SCOPED_TRACE(sql);
    auto plan = Bind(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const size_t blocks_before = plan->blocks.size();
    auto rewritten = ApplyRewriteRules(*plan, &stats);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    EXPECT_EQ(rewritten->blocks.size(), blocks_before);
  }
  EXPECT_EQ(stats.decompositions, 0);
}

// The rule knows the built-in SUM and COUNT by their definitions, not their
// names: with a user aggregate registered as "sum" nothing decomposes (the
// recombination would re-aggregate with it), and the query still matches
// the reference evaluator every batch.
TEST_F(RewriteTest, UserAggregateNamedSumIsNotDecomposed) {
  AggregateFunction rms = **functions_->FindAggregate("rms");
  rms.name = "sum";
  ASSERT_TRUE(functions_->RegisterAggregate(rms).ok());
  for (const char* sql :
       {"SELECT grp, sum(x * y) FROM r, s WHERE r.k = s.k GROUP BY grp",
        "SELECT grp, count(*) FROM r, s WHERE r.k = s.k GROUP BY grp"}) {
    SCOPED_TRACE(sql);
    auto plan = Bind(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    RewriteStats stats;
    auto rewritten = ApplyRewriteRules(*plan, &stats);
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    EXPECT_EQ(stats.decompositions, 0);
    ASSERT_EQ(rewritten->blocks.size(), plan->blocks.size());

    EngineOptions options;
    options.num_trials = 8;
    options.num_batches = 6;
    QueryController controller(&catalog_, *rewritten, options);
    ASSERT_TRUE(controller.Init().ok());
    const Table& fact = *(*catalog_.Find("r"))->table;
    std::vector<Row> accumulated;
    ASSERT_TRUE(
        controller
            .Run([&](const PartialResult& partial) {
              for (uint64_t id : controller.layout().batches[partial.batch]) {
                accumulated.push_back(fact.row(id));
              }
              const double scale =
                  static_cast<double>(fact.num_rows()) / accumulated.size();
              auto expected =
                  EvaluateReference(*rewritten, catalog_, accumulated, scale);
              EXPECT_TRUE(expected.ok()) << expected.status();
              EXPECT_EQ(partial.rows.num_rows(), expected->num_rows());
              for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
                for (size_t c = 0; c < partial.rows.row(r).size(); ++c) {
                  const double e = expected->row(r)[c].AsDouble();
                  EXPECT_NEAR(partial.rows.row(r)[c].AsDouble(), e,
                              1e-7 * std::max(1.0, std::fabs(e)))
                      << "batch " << partial.batch << " row " << r;
                }
              }
              return BatchAction::kContinue;
            })
            .ok());
  }
}

TEST_F(RewriteTest, PreservesDownstreamLookups) {
  // The decomposed block is referenced by a scalar subquery downstream;
  // the lookup's block id must be remapped to the recombining block.
  auto plan = Bind(
      "SELECT count(*) FROM r WHERE x * 100 > "
      "(SELECT sum(x * y) FROM r r2, s WHERE r2.k = s.k)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  RewriteStats stats;
  auto rewritten = ApplyRewriteRules(*plan, &stats);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  ASSERT_EQ(stats.decompositions, 1);
  std::vector<const AggLookupExpr*> lookups;
  rewritten->top().filter->CollectAggLookups(&lookups);
  ASSERT_EQ(lookups.size(), 1u);
  // The lookup must point at the recombining block (an aggregate block).
  EXPECT_TRUE(rewritten->blocks[lookups[0]->block_id()].has_aggregate());
  EXPECT_EQ(rewritten->blocks[lookups[0]->block_id()].inputs[0].kind,
            BlockInput::Kind::kBlockOutput);
}

}  // namespace
}  // namespace iolap
