// Unit tests for the plan builder, plan validation, lineage-block lineage
// computation and the §4.1 uncertainty propagation analysis.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "plan/lineage_blocks.h"
#include "plan/plan_builder.h"
#include "plan/uncertainty_analysis.h"

namespace iolap {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : functions_(FunctionRegistry::Default()) {
    // Streamed fact table: the paper's Sessions log.
    Table sessions(Schema({{"session_id", ValueType::kInt64},
                           {"buffer_time", ValueType::kDouble},
                           {"play_time", ValueType::kDouble},
                           {"site", ValueType::kInt64}}));
    sessions.AddRow({Value::Int64(1), Value::Double(36), Value::Double(238),
                     Value::Int64(0)});
    EXPECT_TRUE(catalog_.RegisterTable("sessions", std::move(sessions),
                                       /*streamed=*/true)
                    .ok());
    // Static dimension table.
    Table sites(
        Schema({{"site", ValueType::kInt64}, {"region", ValueType::kString}}));
    sites.AddRow({Value::Int64(0), Value::String("us")});
    EXPECT_TRUE(catalog_.RegisterTable("sites", std::move(sites)).ok());
  }

  // The SBI query (paper Example 1) as a two-block plan.
  Result<QueryPlan> BuildSbi() {
    PlanBuilder pb(&catalog_, functions_);
    auto& inner = pb.NewBlock("inner_avg");
    inner.Scan("sessions").Agg("avg", inner.ColRef("buffer_time"), "avg_bt");
    auto& outer = pb.NewBlock("sbi");
    outer.Scan("sessions")
        .Filter(Gt(outer.ColRef("buffer_time"),
                   outer.SubqueryRef(inner.id(), "avg_bt")))
        .Agg("avg", outer.ColRef("play_time"), "avg_play");
    return pb.Build();
  }

  Catalog catalog_;
  std::shared_ptr<FunctionRegistry> functions_;
};

TEST_F(PlanTest, SbiBuilds) {
  auto plan = BuildSbi();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->blocks.size(), 2u);
  EXPECT_EQ(plan->streamed_table, "sessions");
  EXPECT_EQ(plan->top().output_schema.num_columns(), 1u);
  EXPECT_EQ(plan->top().output_schema.column(0).name, "avg_play");
  EXPECT_NE(plan->ToString().find("inner_avg"), std::string::npos);
}

TEST_F(PlanTest, UnknownTableFailsAtBuild) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("bad");
  b.Scan("nonexistent").Agg("count", Lit(int64_t{1}), "c");
  EXPECT_EQ(pb.Build().status().code(), StatusCode::kNotFound);
}

TEST_F(PlanTest, UnknownColumnFailsAtBuild) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("bad");
  b.Scan("sessions").Agg("avg", b.ColRef("no_such_col"), "x");
  EXPECT_FALSE(pb.Build().ok());
}

TEST_F(PlanTest, UnknownAggregateFailsAtBuild) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("bad");
  b.Scan("sessions").Agg("median", b.ColRef("play_time"), "x");
  EXPECT_EQ(pb.Build().status().code(), StatusCode::kNotFound);
}

TEST_F(PlanTest, AggregateArgumentCheckedAtBuild) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("bad");
  b.Scan("sites").Agg("avg", b.ColRef("region"), "x");
  EXPECT_EQ(pb.Build().status().code(), StatusCode::kBindError);

  PlanBuilder ok(&catalog_, functions_);
  auto& m = ok.NewBlock("min_region");
  m.Scan("sites").Agg("min", m.ColRef("region"), "first");
  auto plan = ok.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->top().output_schema.column(0).type, ValueType::kString);
}

TEST_F(PlanTest, JoinWithDimension) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("joined");
  b.Scan("sessions")
      .Join("sites", {"site"}, {"site"})
      .GroupBy("region")
      .Agg("avg", b.ColRef("play_time"), "avg_play");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->blocks[0].spj_schema.num_columns(), 6u);
  EXPECT_EQ(plan->blocks[0].inputs[1].prefix_key_cols, std::vector<int>{3});
  EXPECT_EQ(plan->blocks[0].inputs[1].input_key_cols, std::vector<int>{0});
}

TEST_F(PlanTest, KeyedSubqueryRef) {
  // Correlated shape (TPC-H Q17): per-site average compared per row.
  PlanBuilder pb(&catalog_, functions_);
  auto& inner = pb.NewBlock("per_site_avg");
  inner.Scan("sessions")
      .GroupBy("site")
      .Agg("avg", inner.ColRef("buffer_time"), "site_avg");
  auto& outer = pb.NewBlock("outer");
  outer.Scan("sessions")
      .Filter(Gt(outer.ColRef("buffer_time"),
                 outer.SubqueryRef(inner.id(), "site_avg",
                                   {outer.ColRef("site")})))
      .Agg("count", Lit(int64_t{1}), "n");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
}

TEST_F(PlanTest, SubqueryRefKeyArityMismatch) {
  PlanBuilder pb(&catalog_, functions_);
  auto& inner = pb.NewBlock("per_site_avg");
  inner.Scan("sessions")
      .GroupBy("site")
      .Agg("avg", inner.ColRef("buffer_time"), "site_avg");
  auto& outer = pb.NewBlock("outer");
  outer.Scan("sessions")
      .Filter(Gt(outer.ColRef("buffer_time"),
                 outer.SubqueryRef(inner.id(), "site_avg")))  // missing key
      .Agg("count", Lit(int64_t{1}), "n");
  EXPECT_FALSE(pb.Build().ok());
}

TEST_F(PlanTest, MinOverStreamedRejected) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("bad");
  b.Scan("sessions").Agg("min", b.ColRef("play_time"), "m");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok());  // structurally fine
  // ... but the uncertainty analysis rejects non-smooth sampling (§3.3).
  EXPECT_EQ(AnalyzeUncertainty(*plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, MinOverStaticAllowed) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("static_min");
  b.Scan("sites").Agg("min", b.ColRef("site"), "m");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(AnalyzeUncertainty(*plan).ok());
}

TEST_F(PlanTest, JoinBlockOutput) {
  // Join the per-site aggregate relation back to the fact table (the
  // paper's Figure 2(a) shape with an explicit join).
  PlanBuilder pb(&catalog_, functions_);
  auto& inner = pb.NewBlock("per_site_avg");
  inner.Scan("sessions")
      .GroupBy("site")
      .Agg("avg", inner.ColRef("buffer_time"), "site_avg");
  auto& outer = pb.NewBlock("outer");
  outer.Scan("sessions")
      .JoinBlock(inner.id(), {"site"}, {"site"})
      .Filter(Gt(outer.ColRef("buffer_time"), outer.ColRef("site_avg")))
      .Agg("avg", outer.ColRef("play_time"), "avg_play");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Lineage: the joined-in site_avg column carries an AggLookup keyed by
  // the input's own group-key column.
  const Block& top = plan->top();
  auto lineage = ComputeSpjLineage(*plan, top);
  ASSERT_EQ(lineage.size(), 6u);  // 4 fact cols + (site, site_avg)
  EXPECT_EQ(lineage[0], nullptr);
  EXPECT_EQ(lineage[4], nullptr);  // group key: deterministic
  ASSERT_NE(lineage[5], nullptr);  // site_avg: uncertain
  std::vector<const AggLookupExpr*> lookups;
  lineage[5]->CollectAggLookups(&lookups);
  ASSERT_EQ(lookups.size(), 1u);
  EXPECT_EQ(lookups[0]->block_id(), inner.id());
  EXPECT_EQ(lookups[0]->key_exprs().size(), 1u);
}

// --------------------------------------------- uncertainty propagation

TEST_F(PlanTest, SbiAnnotationsMatchPaperFigure3) {
  auto plan = BuildSbi();
  ASSERT_TRUE(plan.ok());
  auto ann = AnalyzeUncertainty(*plan);
  ASSERT_TRUE(ann.ok()) << ann.status();

  // Inner block: streamed scan, deterministic attributes, no filter; its
  // aggregate output attribute is uncertain (Fig. 3(b)).
  const BlockAnnotations& inner = (*ann)[0];
  EXPECT_TRUE(inner.dynamic);
  EXPECT_FALSE(inner.filter_uncertain);
  EXPECT_FALSE(inner.spj_attr_uncertain[0]);
  ASSERT_EQ(inner.output_attr_uncertain.size(), 1u);
  EXPECT_TRUE(inner.output_attr_uncertain[0]);
  EXPECT_FALSE(inner.output_tuple_uncertain);
  EXPECT_FALSE(inner.depends_on_uncertain);

  // Outer block: the filter reads the uncertain aggregate, so its
  // decisions are uncertain (Fig. 3(d)); the output aggregate is
  // uncertain both in attribute and in tuple membership (Fig. 3(e)).
  const BlockAnnotations& outer = (*ann)[1];
  EXPECT_TRUE(outer.filter_uncertain);
  EXPECT_TRUE(outer.depends_on_uncertain);
  EXPECT_TRUE(outer.output_attr_uncertain[0]);
  EXPECT_TRUE(outer.output_tuple_uncertain);
}

TEST_F(PlanTest, SimpleSpjaHasNoUncertaintyDependence) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("simple");
  b.Scan("sessions")
      .Filter(Gt(b.ColRef("buffer_time"), Lit(10.0)))
      .Agg("sum", b.ColRef("play_time"), "total");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok());
  auto ann = AnalyzeUncertainty(*plan);
  ASSERT_TRUE(ann.ok());
  EXPECT_FALSE((*ann)[0].filter_uncertain);
  EXPECT_FALSE((*ann)[0].depends_on_uncertain);
  EXPECT_TRUE((*ann)[0].dynamic);
}

TEST_F(PlanTest, StaticQueryIsNotDynamic) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b = pb.NewBlock("static");
  b.Scan("sites").Agg("count", Lit(int64_t{1}), "n");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok());
  auto ann = AnalyzeUncertainty(*plan);
  ASSERT_TRUE(ann.ok());
  EXPECT_FALSE((*ann)[0].dynamic);
  EXPECT_FALSE((*ann)[0].output_attr_uncertain[0]);
}

TEST_F(PlanTest, UncertainFilterFeedingJoinRejected) {
  // A block with an uncertain (HAVING-style) filter must not feed a
  // *multi-input* join: its group membership can regress, which the
  // append-only join caches cannot express.
  PlanBuilder pb(&catalog_, functions_);
  auto& global_avg = pb.NewBlock("global_avg");
  global_avg.Scan("sessions")
      .Agg("avg", global_avg.ColRef("buffer_time"), "g");
  auto& per_site = pb.NewBlock("per_site");
  per_site.Scan("sessions")
      .Filter(Gt(per_site.ColRef("buffer_time"),
                 per_site.SubqueryRef(global_avg.id(), "g")))
      .GroupBy("site")
      .Agg("count", Lit(int64_t{1}), "n");
  auto& top = pb.NewBlock("top");
  top.Scan("sessions")
      .JoinBlock(per_site.id(), {"site"}, {"site"})
      .Agg("sum", top.ColRef("n"), "total");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(AnalyzeUncertainty(*plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, UncertainFilterFeedingSnapshotConsumerAccepted) {
  // The same producer feeding a single-input (snapshot) consumer is fine:
  // snapshot consumers re-evaluate the producer's full output per batch.
  PlanBuilder pb(&catalog_, functions_);
  auto& global_avg = pb.NewBlock("global_avg");
  global_avg.Scan("sessions")
      .Agg("avg", global_avg.ColRef("buffer_time"), "g");
  auto& per_site = pb.NewBlock("per_site");
  per_site.Scan("sessions")
      .Filter(Gt(per_site.ColRef("buffer_time"),
                 per_site.SubqueryRef(global_avg.id(), "g")))
      .GroupBy("site")
      .Agg("count", Lit(int64_t{1}), "n");
  auto& top = pb.NewBlock("top");
  top.ScanBlock(per_site.id()).Agg("sum", top.ColRef("n"), "total");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(AnalyzeUncertainty(*plan).ok());
}

TEST_F(PlanTest, UncertainFilterScalarLookupRejected) {
  // A scalar lookup into an uncertain-membership block would read stale
  // entries when the membership regresses.
  PlanBuilder pb(&catalog_, functions_);
  auto& global_avg = pb.NewBlock("global_avg");
  global_avg.Scan("sessions")
      .Agg("avg", global_avg.ColRef("buffer_time"), "g");
  auto& filtered = pb.NewBlock("filtered_total");
  filtered.Scan("sessions")
      .Filter(Gt(filtered.ColRef("buffer_time"),
                 filtered.SubqueryRef(global_avg.id(), "g")))
      .Agg("sum", filtered.ColRef("play_time"), "s");
  auto& top = pb.NewBlock("top");
  top.Scan("sessions")
      .Filter(Gt(top.ColRef("play_time"),
                 top.SubqueryRef(filtered.id(), "s")))
      .Agg("count", Lit(int64_t{1}), "n");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(AnalyzeUncertainty(*plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, AggregatingUncertainAttributeIsFlagged) {
  PlanBuilder pb(&catalog_, functions_);
  auto& inner = pb.NewBlock("global_avg");
  inner.Scan("sessions").Agg("avg", inner.ColRef("buffer_time"), "g");
  auto& outer = pb.NewBlock("dev");
  outer.Scan("sessions").Agg(
      "avg",
      Sub(outer.ColRef("buffer_time"), outer.SubqueryRef(inner.id(), "g")),
      "mean_dev");
  auto plan = pb.Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto ann = AnalyzeUncertainty(*plan);
  ASSERT_TRUE(ann.ok()) << ann.status();
  ASSERT_EQ((*ann)[1].agg_arg_uncertain.size(), 1u);
  EXPECT_TRUE((*ann)[1].agg_arg_uncertain[0]);
  EXPECT_FALSE((*ann)[1].filter_uncertain);
}

TEST_F(PlanTest, TwoStreamedTablesRejected) {
  Catalog catalog;
  Table a(Schema({{"x", ValueType::kInt64}}));
  a.AddRow({Value::Int64(1)});
  Table b(Schema({{"y", ValueType::kInt64}}));
  b.AddRow({Value::Int64(1)});
  ASSERT_TRUE(catalog.RegisterTable("a", std::move(a), true).ok());
  ASSERT_TRUE(catalog.RegisterTable("b", std::move(b), true).ok());
  PlanBuilder pb(&catalog, functions_);
  auto& blk = pb.NewBlock("two_streams");
  blk.Scan("a").Join("b", {}, {}).Agg("count", Lit(int64_t{1}), "n");
  EXPECT_EQ(pb.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanTest, PureSpjOnlyAtTop) {
  PlanBuilder pb(&catalog_, functions_);
  auto& b1 = pb.NewBlock("spj_inner");
  b1.Scan("sessions").Project(b1.ColRef("play_time"), "p");
  auto& b2 = pb.NewBlock("top");
  b2.Scan("sessions").Agg("count", Lit(int64_t{1}), "n");
  EXPECT_FALSE(pb.Build().ok());
}

}  // namespace
}  // namespace iolap
