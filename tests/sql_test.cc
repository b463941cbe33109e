// Tests for the SQL frontend: lexer, parser, binder, and end-to-end SQL
// execution checked against the reference evaluator.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "catalog/catalog.h"
#include "common/random.h"
#include "exec/reference.h"
#include "iolap/session.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace iolap {
namespace {

// ----------------------------------------------------------------- lexer

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b.c FROM t WHERE x >= 1.5 AND y <> 'it''s'");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ((*tokens)[0].text, "select");  // lower-cased
  EXPECT_EQ((*tokens)[3].text, "b");
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kDot);
  // The escaped string literal.
  bool found = false;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "it's");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, NumbersIntAndFloat) {
  auto tokens = Tokenize("42 3.5 .25 1e3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_FALSE((*tokens)[0].is_float);
  EXPECT_TRUE((*tokens)[1].is_float);
  EXPECT_TRUE((*tokens)[2].is_float);
  EXPECT_TRUE((*tokens)[3].is_float);
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = Tokenize("< <= > >= = <> !=");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLess);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kLessEq);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kGreater);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kGreaterEq);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kEq);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kNotEq);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kNotEq);
}

TEST(LexerTest, LineComments) {
  auto tokens = Tokenize("a -- a comment\n b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ? b").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseSelect("SELECT avg(play_time) AS p FROM sessions");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ((*stmt)->items.size(), 1u);
  EXPECT_EQ((*stmt)->items[0].alias, "p");
  EXPECT_EQ((*stmt)->items[0].expr->kind, AstExpr::Kind::kCall);
  ASSERT_EQ((*stmt)->from.size(), 1u);
  EXPECT_EQ((*stmt)->from[0].table, "sessions");
}

TEST(ParserTest, SbiNestedSubquery) {
  auto stmt = ParseSelect(
      "SELECT AVG(play_time) FROM sessions "
      "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_NE((*stmt)->where, nullptr);
  const AstExpr& where = *(*stmt)->where;
  EXPECT_EQ(where.kind, AstExpr::Kind::kBinary);
  EXPECT_EQ(where.name, ">");
  EXPECT_EQ(where.args[1]->kind, AstExpr::Kind::kSubquery);
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = ParseSelect(
      "SELECT site, SUM(play_time) s FROM sessions GROUP BY site "
      "HAVING SUM(play_time) > 100");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->group_by.size(), 1u);
  ASSERT_NE((*stmt)->having, nullptr);
  EXPECT_EQ((*stmt)->items[1].alias, "s");
}

TEST(ParserTest, CommaJoinAndAliases) {
  auto stmt = ParseSelect(
      "SELECT count(*) FROM lineorder l, part p WHERE l.partkey = p.partkey");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ((*stmt)->from.size(), 2u);
  EXPECT_EQ((*stmt)->from[0].alias, "l");
  EXPECT_EQ((*stmt)->from[1].alias, "p");
}

TEST(ParserTest, ExplicitJoinOn) {
  auto stmt = ParseSelect(
      "SELECT count(*) FROM lineorder JOIN part ON lineorder.partkey = "
      "part.partkey WHERE part.size > 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->from.size(), 2u);
  // ON condition folded into WHERE as a conjunct.
  std::vector<AstExprPtr> conjuncts;
  std::function<void(const AstExprPtr&)> flatten = [&](const AstExprPtr& e) {
    if (e->kind == AstExpr::Kind::kBinary && e->name == "and") {
      flatten(e->args[0]);
      flatten(e->args[1]);
    } else {
      conjuncts.push_back(e);
    }
  };
  flatten((*stmt)->where);
  EXPECT_EQ(conjuncts.size(), 2u);
}

TEST(ParserTest, InSubquery) {
  auto stmt = ParseSelect(
      "SELECT sum(x) FROM t WHERE k IN (SELECT k FROM t GROUP BY k HAVING "
      "sum(q) > 300)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->where->kind, AstExpr::Kind::kIn);
  EXPECT_NE((*stmt)->where->subquery->having, nullptr);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT a + b * c - d FROM t");
  ASSERT_TRUE(stmt.ok());
  // ((a + (b*c)) - d)
  EXPECT_EQ((*stmt)->items[0].expr->ToString(), "((a + (b * c)) - d)");
}

TEST(ParserTest, NotAndLogic) {
  auto stmt =
      ParseSelect("SELECT count(*) FROM t WHERE NOT a > 1 AND b < 2 OR c = 3");
  ASSERT_TRUE(stmt.ok());
  // OR binds loosest: ((NOT(a>1) AND b<2) OR c=3)
  EXPECT_EQ((*stmt)->where->name, "or");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());                 // no FROM
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());    // dangling
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP site").ok());  // no BY
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage ,").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT 2.5").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t ORDER a").ok());  // missing BY
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE x BETWEEN 1").ok());
}

TEST(ParserTest, BetweenDesugarsToConjunction) {
  auto stmt = ParseSelect("SELECT count(*) FROM t WHERE x BETWEEN 1 AND 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->where->ToString(), "((x >= 1) and (x <= 5))");
}

TEST(ParserTest, InListDesugarsToOrChain) {
  auto stmt = ParseSelect("SELECT count(*) FROM t WHERE x IN (1, 2, 3)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ((*stmt)->where->ToString(),
            "(((x = 1) or (x = 2)) or (x = 3))");
}

TEST(ParserTest, OrderByAndLimit) {
  auto stmt = ParseSelect(
      "SELECT g, sum(v) s FROM t GROUP BY g ORDER BY s DESC, g LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ((*stmt)->order_by.size(), 2u);
  EXPECT_TRUE((*stmt)->order_by[0].descending);
  EXPECT_FALSE((*stmt)->order_by[1].descending);
  EXPECT_EQ((*stmt)->limit, 10);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseSelect("SELECT a FROM t;").ok());
}

// ---------------------------------------------------------------- binder

class SqlBindTest : public ::testing::Test {
 protected:
  SqlBindTest() : functions_(FunctionRegistry::Default()) {
    Rng rng(71);
    Table sessions(Schema({{"session_id", ValueType::kInt64},
                           {"buffer_time", ValueType::kDouble},
                           {"play_time", ValueType::kDouble},
                           {"site", ValueType::kInt64},
                           {"bytes", ValueType::kDouble}}));
    for (int i = 0; i < 500; ++i) {
      sessions.AddRow(
          {Value::Int64(i), Value::Double(5.0 + 60.0 * rng.NextDouble()),
           Value::Double(30.0 + 600.0 * rng.NextDouble()),
           Value::Int64(static_cast<int64_t>(rng.NextZipf(6, 0.7))),
           Value::Double(1000.0 * rng.NextDouble())});
    }
    EXPECT_TRUE(
        catalog_.RegisterTable("sessions", std::move(sessions), true).ok());

    Table sites(Schema({{"site", ValueType::kInt64},
                        {"region", ValueType::kString},
                        {"cdn", ValueType::kString}}));
    const char* regions[] = {"us", "eu", "apac"};
    const char* cdns[] = {"akamai", "level3"};
    for (int s = 0; s < 6; ++s) {
      sites.AddRow({Value::Int64(s), Value::String(regions[s % 3]),
                    Value::String(cdns[s % 2])});
    }
    EXPECT_TRUE(catalog_.RegisterTable("sites", std::move(sites)).ok());
  }

  Result<QueryPlan> Bind(const std::string& sql) {
    return BindSql(sql, catalog_, functions_);
  }

  Catalog catalog_;
  std::shared_ptr<FunctionRegistry> functions_;
};

TEST_F(SqlBindTest, GlobalAggregateSingleBlock) {
  auto plan = Bind("SELECT avg(play_time), count(*) FROM sessions");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->blocks.size(), 1u);
  EXPECT_EQ(plan->streamed_table, "sessions");
  EXPECT_EQ(plan->top().aggs.size(), 2u);
}

TEST_F(SqlBindTest, SbiTwoBlocks) {
  auto plan = Bind(
      "SELECT AVG(play_time) FROM sessions "
      "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->blocks.size(), 2u);
  EXPECT_NE(plan->top().filter, nullptr);
  std::vector<const AggLookupExpr*> lookups;
  plan->top().filter->CollectAggLookups(&lookups);
  ASSERT_EQ(lookups.size(), 1u);
  EXPECT_EQ(lookups[0]->block_id(), 0);
}

TEST_F(SqlBindTest, JoinWithDimensionAndGroupBy) {
  auto plan = Bind(
      "SELECT region, avg(play_time) FROM sessions, sites "
      "WHERE sessions.site = sites.site GROUP BY region");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->blocks.size(), 1u);
  const Block& top = plan->top();
  ASSERT_EQ(top.inputs.size(), 2u);
  EXPECT_EQ(top.inputs[1].prefix_key_cols.size(), 1u);
  EXPECT_EQ(top.group_by.size(), 1u);
}

TEST_F(SqlBindTest, CorrelatedSubqueryDecorrelates) {
  auto plan = Bind(
      "SELECT sum(play_time) FROM sessions s "
      "WHERE s.buffer_time > (SELECT 1.2 * avg(s2.buffer_time) FROM "
      "sessions s2 WHERE s2.site = s.site)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->blocks.size(), 2u);
  // The subquery became a per-site grouped block.
  EXPECT_EQ(plan->blocks[0].group_by.size(), 1u);
  std::vector<const AggLookupExpr*> lookups;
  plan->top().filter->CollectAggLookups(&lookups);
  ASSERT_EQ(lookups.size(), 1u);
  EXPECT_EQ(lookups[0]->key_exprs().size(), 1u);
}

TEST_F(SqlBindTest, InSubqueryWithHavingPushesPredicate) {
  auto plan = Bind(
      "SELECT avg(play_time) FROM sessions WHERE site IN "
      "(SELECT site FROM sessions GROUP BY site HAVING avg(buffer_time) > "
      "30)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->blocks.size(), 2u);
  // The grouped block has no filter (membership stays append-only)...
  EXPECT_EQ(plan->blocks[0].filter, nullptr);
  EXPECT_EQ(plan->blocks[0].group_by.size(), 1u);
  // ... and the consumer joins it and filters on the pushed HAVING.
  const Block& top = plan->top();
  ASSERT_EQ(top.inputs.size(), 2u);
  EXPECT_EQ(top.inputs[1].kind, BlockInput::Kind::kBlockOutput);
  ASSERT_NE(top.filter, nullptr);
}

TEST_F(SqlBindTest, HavingCreatesPostBlock) {
  auto plan = Bind(
      "SELECT site, sum(play_time) AS total FROM sessions GROUP BY site "
      "HAVING sum(play_time) > 0.2 * (SELECT sum(play_time) FROM sessions)");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // agg block + scalar subquery block + post block.
  EXPECT_EQ(plan->blocks.size(), 3u);
  const Block& top = plan->top();
  EXPECT_FALSE(top.has_aggregate());
  ASSERT_NE(top.filter, nullptr);
  EXPECT_EQ(top.output_schema.column(1).name, "total");
}

TEST_F(SqlBindTest, ComplexItemsCreatePostBlock) {
  auto plan = Bind(
      "SELECT sum(play_time) / sum(bytes) FROM sessions");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->blocks.size(), 2u);
  EXPECT_FALSE(plan->top().has_aggregate());
  EXPECT_EQ(plan->blocks[0].aggs.size(), 2u);
}

TEST_F(SqlBindTest, UdafInSql) {
  auto plan = Bind("SELECT geomean(play_time) FROM sessions");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->top().aggs[0].fn->name, "geomean");
}

TEST_F(SqlBindTest, ScalarUdfInSql) {
  auto plan = Bind("SELECT avg(sqrt(play_time)) FROM sessions");
  ASSERT_TRUE(plan.ok()) << plan.status();
}

TEST_F(SqlBindTest, BindErrors) {
  EXPECT_FALSE(Bind("SELECT avg(nope) FROM sessions").ok());
  EXPECT_FALSE(Bind("SELECT avg(play_time) FROM nonexistent").ok());
  EXPECT_FALSE(Bind("SELECT unknown_fn(play_time) FROM sessions").ok());
  // min over the streamed relation: rejected by the smoothness rule.
  Session session(&catalog_);
  EXPECT_FALSE(session.Sql("SELECT min(play_time) FROM sessions").ok());
  // Ambiguous column.
  EXPECT_FALSE(
      Bind("SELECT count(*) FROM sessions, sites WHERE site > 1").ok());
  // Aggregate in WHERE.
  EXPECT_FALSE(
      Bind("SELECT count(*) FROM sessions WHERE sum(play_time) > 1").ok());
}

// The binder is the one place a scalar call resolves: arity and argument
// kinds are checked against the function's signature there, so neither the
// interpreter nor the compiler ever sees an unknown function or a bad call.
// No operator mixes a string and a number: the compiled programs, the
// engine's only evaluator, keep them in separate register files, and a
// string has no defined order against a number or value as one.
TEST_F(SqlBindTest, StringNumberMixIsABindError) {
  for (const char* sql : {
           "SELECT count(*) FROM sites WHERE region = 5",
           "SELECT count(*) FROM sites WHERE region > 5",
           "SELECT count(*) FROM sites WHERE NOT region",
           "SELECT count(*) FROM sites WHERE -region < 0",
           "SELECT sum(site + region) FROM sites",
           "SELECT count(*) FROM sites WHERE 1.5 <= cdn",
           "SELECT count(*) FROM sites WHERE region AND site > 1",
           "SELECT sum(site % region) FROM sites",
           // A call returning one of its arguments takes no mix of them.
           "SELECT if(site > 1, 'a', 5) FROM sites",
           "SELECT coalesce(NULL, region, site) FROM sites",
           "SELECT count(*) FROM sites GROUP BY greatest(region, 1)",
       }) {
    auto plan = Bind(sql);
    ASSERT_FALSE(plan.ok()) << sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kBindError)
        << sql << ": " << plan.status();
  }
  // Strings compare with strings, and NULL fits either side.
  for (const char* sql : {
           "SELECT count(*) FROM sites WHERE region = 'us'",
           "SELECT count(*) FROM sites WHERE region < cdn",
           "SELECT count(*) FROM sites WHERE region = NULL",
           "SELECT sum(site + NULL) FROM sites",
           "SELECT count(*) FROM sites WHERE region = if(site > 1, NULL, 'us')",
           "SELECT count(*) FROM sites WHERE region = "
           "(SELECT max(NULL) FROM sites)",
           "SELECT coalesce(NULL, region), if(site > 1, NULL, 5) FROM sites",
       }) {
    EXPECT_TRUE(Bind(sql).ok()) << sql << ": " << Bind(sql).status();
  }
}

// An aggregate lookup is probed once per row, before any bootstrap trial,
// so its key must not read an uncertain value.
TEST_F(SqlBindTest, LookupKeyedOnUncertainValueIsABindError) {
  auto plan = Bind(
      "SELECT count(*) FROM sessions s WHERE s.play_time > "
      "(SELECT avg(s2.play_time) FROM sessions s2 "
      "WHERE s2.site = (SELECT max(site) FROM sites))");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kBindError) << plan.status();
  EXPECT_NE(plan.status().message().find("uncertain"), std::string::npos)
      << plan.status();
  // Keyed on a deterministic column, the same subquery binds.
  EXPECT_TRUE(Bind("SELECT count(*) FROM sessions s WHERE s.play_time > "
                   "(SELECT avg(s2.play_time) FROM sessions s2 "
                   "WHERE s2.site = s.site)")
                  .ok());
}

TEST_F(SqlBindTest, ScalarCallsCheckedAgainstSignature) {
  auto bind_error = [&](const std::string& item) {
    auto plan = Bind("SELECT avg(" + item + ") FROM sessions");
    EXPECT_FALSE(plan.ok()) << item;
    return plan.ok() ? StatusCode::kOk : plan.status().code();
  };
  EXPECT_EQ(bind_error("sqrt(play_time, 2)"), StatusCode::kBindError);
  EXPECT_EQ(bind_error("pow(play_time)"), StatusCode::kBindError);
  EXPECT_EQ(bind_error("substr('abc', 1)"), StatusCode::kBindError);
  // A string argument to a numeric parameter, and the reverse.
  EXPECT_EQ(bind_error("sqrt('abc')"), StatusCode::kBindError);
  EXPECT_EQ(bind_error("mod(play_time, 'x')"), StatusCode::kBindError);
  EXPECT_EQ(bind_error("length(play_time)"), StatusCode::kBindError);
  EXPECT_EQ(bind_error("length(upper(site))"), StatusCode::kBindError);
  EXPECT_EQ(bind_error("length(substr(site, 1, 2))"), StatusCode::kBindError);
  // Unknown functions stay errors.
  EXPECT_FALSE(Bind("SELECT avg(no_such_fn(play_time)) FROM sessions").ok());
  // NULL-typed arguments fit every parameter kind.
  EXPECT_TRUE(Bind("SELECT avg(sqrt(NULL)), avg(length(NULL)) FROM sessions")
                  .ok());

  // if/coalesce/least/greatest take the type of their first result
  // candidate (if: THEN, then ELSE) that is not NULL-typed.
  auto plan = Bind(
      "SELECT if(play_time > 1, site, 2), if(site > 1, 'a', 'b'), "
      "coalesce(play_time, site), least(site, 1.5), greatest(play_time, 2), "
      "coalesce(NULL, site), if(site > 1, NULL, play_time), "
      "least(NULL, NULL, site), coalesce(NULL, NULL) FROM sessions");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<ExprPtr>& items = plan->top().projections;
  ASSERT_EQ(items.size(), 9u);
  EXPECT_EQ(items[0]->output_type(), ValueType::kInt64);
  EXPECT_EQ(items[1]->output_type(), ValueType::kString);
  EXPECT_EQ(items[2]->output_type(), ValueType::kDouble);
  EXPECT_EQ(items[3]->output_type(), ValueType::kInt64);
  EXPECT_EQ(items[4]->output_type(), ValueType::kDouble);
  EXPECT_EQ(items[5]->output_type(), ValueType::kInt64);
  EXPECT_EQ(items[6]->output_type(), ValueType::kDouble);
  EXPECT_EQ(items[7]->output_type(), ValueType::kInt64);
  EXPECT_EQ(items[8]->output_type(), ValueType::kNull);
}

// Aggregate calls are checked against their definitions' signatures, like
// scalar calls.
TEST_F(SqlBindTest, AggregateCallsCheckedAgainstSignature) {
  for (const char* fn : {"sum", "avg", "var", "stddev", "geomean",
                         "harmonic_mean", "rms"}) {
    auto plan = Bind(std::string("SELECT ") + fn + "(region) FROM sites");
    ASSERT_FALSE(plan.ok()) << fn;
    EXPECT_EQ(plan.status().code(), StatusCode::kBindError) << fn;
  }
  EXPECT_FALSE(Bind("SELECT sum(*) FROM sites").ok());
  for (const char* item : {"count(region)", "min(region)", "max(region)",
                           "count(*)", "sum(NULL)"}) {
    EXPECT_TRUE(Bind(std::string("SELECT ") + item + " FROM sites").ok())
        << item;
  }
  auto plan = Bind("SELECT min(region), max(site), count(region) FROM sites");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const Schema& out = plan->top().output_schema;
  EXPECT_EQ(out.column(0).type, ValueType::kString);
  EXPECT_EQ(out.column(1).type, ValueType::kInt64);
  EXPECT_EQ(out.column(2).type, ValueType::kDouble);

  // variance and std spell var and stddev.
  plan = Bind("SELECT variance(buffer_time), std(buffer_time) FROM sessions");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->top().aggs[0].fn->name, "var");
  EXPECT_EQ(plan->top().aggs[1].fn->name, "stddev");

  // A definition whose signature admits no argument binds no call.
  AggregateFunction nullary = **functions_->FindAggregate("sum");
  nullary.name = "nullary";
  nullary.signature = {};
  ASSERT_TRUE(functions_->RegisterAggregate(nullary).ok());
  EXPECT_EQ(Bind("SELECT nullary(site) FROM sites").status().code(),
            StatusCode::kBindError);
}

// A definition registered under a built-in's name replaces the built-in.
TEST_F(SqlBindTest, RegisteredAggregateReplacesBuiltin) {
  Table t(Schema({{"x", ValueType::kInt64}}));
  double log_sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    t.AddRow({Value::Int64(i)});
    log_sum += std::log(i);
  }
  ASSERT_TRUE(catalog_.RegisterTable("t", std::move(t)).ok());
  AggregateFunction geomean = **functions_->FindAggregate("geomean");
  geomean.name = "avg";
  ASSERT_TRUE(functions_->RegisterAggregate(geomean).ok());

  Session session(&catalog_, EngineOptions{}, functions_);
  auto query = session.Sql("SELECT avg(x) FROM t");
  ASSERT_TRUE(query.ok()) << query.status();
  double result = 0.0;
  ASSERT_TRUE((*query)
                  ->Run([&](const PartialResult& partial) {
                    result = partial.rows.row(0)[0].AsDouble();
                    return BatchAction::kContinue;
                  })
                  .ok());
  EXPECT_NEAR(result, std::exp(log_sum / 100), 1e-9);  // not 50.5
}

// --------------------------------------------- end-to-end SQL execution

class SqlExecTest : public SqlBindTest {
 protected:
  // Runs `sql` incrementally and checks every partial result against the
  // reference evaluation of the same SQL on the accumulated data.
  void CheckSql(const std::string& sql, size_t batches = 6) {
    EngineOptions options;
    options.num_trials = 20;
    options.num_batches = batches;
    options.seed = 13;
    Session session(&catalog_, options, functions_);
    auto query = session.Sql(sql);
    ASSERT_TRUE(query.ok()) << sql << "\n" << query.status();

    auto plan = Bind(sql);
    ASSERT_TRUE(plan.ok());
    const Table& fact = *(*catalog_.Find("sessions"))->table;
    std::vector<Row> accumulated;
    QueryController& controller = (*query)->controller();
    Status status = (*query)->Run([&](const PartialResult& partial) {
      for (uint64_t id : controller.layout().batches[partial.batch]) {
        accumulated.push_back(fact.row(id));
      }
      const double scale =
          static_cast<double>(fact.num_rows()) / accumulated.size();
      auto expected = EvaluateReference(*plan, catalog_, accumulated, scale);
      EXPECT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(partial.rows.num_rows(), expected->num_rows())
          << sql << " batch " << partial.batch;
      for (size_t r = 0; r < partial.rows.num_rows(); ++r) {
        for (size_t c = 0; c < partial.rows.row(r).size(); ++c) {
          const Value& a = partial.rows.row(r)[c];
          const Value& e = expected->row(r)[c];
          if (a.is_numeric() && e.is_numeric()) {
            EXPECT_NEAR(a.AsDouble(), e.AsDouble(),
                        1e-7 * std::max(1.0, std::fabs(e.AsDouble())))
                << sql << " batch " << partial.batch << " row " << r
                << " col " << c;
          } else {
            EXPECT_TRUE(a.Equals(e)) << sql;
          }
        }
      }
      return BatchAction::kContinue;
    });
    ASSERT_TRUE(status.ok()) << status;
  }
};

TEST_F(SqlExecTest, GlobalAggregates) {
  CheckSql("SELECT avg(play_time), sum(bytes), count(*) FROM sessions");
}

TEST_F(SqlExecTest, FilteredAggregate) {
  CheckSql(
      "SELECT sum(play_time) FROM sessions WHERE buffer_time < 30 AND "
      "bytes > 100");
}

TEST_F(SqlExecTest, GroupByWithJoin) {
  CheckSql(
      "SELECT region, avg(play_time), count(*) FROM sessions, sites "
      "WHERE sessions.site = sites.site GROUP BY region");
}

TEST_F(SqlExecTest, Sbi) {
  CheckSql(
      "SELECT AVG(play_time) FROM sessions "
      "WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)");
}

TEST_F(SqlExecTest, CorrelatedSubquery) {
  CheckSql(
      "SELECT sum(play_time) FROM sessions s "
      "WHERE s.buffer_time > (SELECT 1.2 * avg(s2.buffer_time) FROM "
      "sessions s2 WHERE s2.site = s.site)");
}

TEST_F(SqlExecTest, InSubqueryWithHaving) {
  CheckSql(
      "SELECT avg(play_time) FROM sessions WHERE site IN "
      "(SELECT site FROM sessions GROUP BY site HAVING avg(buffer_time) > "
      "33)");
}

TEST_F(SqlExecTest, HavingAgainstScalarSubquery) {
  CheckSql(
      "SELECT site, sum(play_time) AS total FROM sessions GROUP BY site "
      "HAVING sum(play_time) > 0.15 * (SELECT sum(play_time) FROM "
      "sessions)");
}

TEST_F(SqlExecTest, RatioOfAggregates) {
  CheckSql("SELECT sum(play_time) / sum(bytes) FROM sessions");
}

TEST_F(SqlExecTest, UdfAndUdaf) {
  CheckSql(
      "SELECT geomean(play_time), rms(buffer_time), avg(sqrt(bytes)) "
      "FROM sessions");
}

// The analytic error mode asks each definition for its closed form; a user
// definition without one reports a zero-width band.
TEST_F(SqlExecTest, AnalyticEstimateNeedsClosedForm) {
  AggregateFunction plain_avg = **functions_->FindAggregate("avg");
  plain_avg.name = "plain_avg";
  plain_avg.analytic_stddev = nullptr;
  ASSERT_TRUE(functions_->RegisterAggregate(plain_avg).ok());

  EngineOptions options;
  options.num_batches = 4;
  options.error_method = ErrorMethod::kAnalytic;
  Session session(&catalog_, options, functions_);
  auto query =
      session.Sql("SELECT avg(play_time), plain_avg(play_time) FROM sessions");
  ASSERT_TRUE(query.ok()) << query.status();
  int batches = 0;
  ASSERT_TRUE((*query)
                  ->Run([&](const PartialResult& partial) {
                    ++batches;
                    const ErrorEstimate& with = partial.estimates.at(0).at(0);
                    const ErrorEstimate& without =
                        partial.estimates.at(0).at(1);
                    EXPECT_EQ(with.value, without.value);
                    if (partial.batch < 3) {
                      EXPECT_GT(with.stddev, 0.0);
                    }
                    EXPECT_EQ(without.stddev, 0.0);
                    EXPECT_EQ(without.ci_lo, without.value);
                    EXPECT_EQ(without.ci_hi, without.value);
                    return BatchAction::kContinue;
                  })
                  .ok());
  EXPECT_EQ(batches, 4);
}

TEST_F(SqlExecTest, ArithmeticInAggArgs) {
  CheckSql(
      "SELECT sum(play_time * (1 - buffer_time / 100.0)) FROM sessions "
      "WHERE buffer_time < 90");
}

// A NULL-typed operand reads NULL at run time: a call returning one of its
// arguments returns the others past it, and a string compared with it is
// NULL, in the engine and in the reference alike.
TEST_F(SqlExecTest, NullTypedOperands) {
  CheckSql(
      "SELECT sum(coalesce(NULL, play_time)), "
      "sum(if(buffer_time > 30, NULL, bytes)), count(least(NULL, site)) "
      "FROM sessions");
  CheckSql(
      "SELECT region, count(*) FROM sessions, sites "
      "WHERE sessions.site = sites.site "
      "AND region = if(sites.site > 1, NULL, 'us') GROUP BY region");
  CheckSql(
      "SELECT count(*) FROM sessions, sites WHERE sessions.site = sites.site "
      "AND region = (SELECT max(NULL) FROM sites)");
  // A string call that folds to NULL stays in a string register.
  CheckSql(
      "SELECT lower(NULL), count(upper(NULL)), count(*) FROM sessions, sites "
      "WHERE sessions.site = sites.site AND region <> lower(NULL) "
      "GROUP BY lower(NULL)");
}

}  // namespace
}  // namespace iolap
