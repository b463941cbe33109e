#ifndef IOLAP_PLAN_PLAN_BUILDER_H_
#define IOLAP_PLAN_PLAN_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/logical_plan.h"

namespace iolap {

class PlanBuilder;

/// Fluent builder for a single lineage block. Obtained from
/// PlanBuilder::NewBlock(); errors (unknown tables/columns, bad keys) are
/// recorded and surfaced by PlanBuilder::Build(), so call chains stay
/// clean. Column references are resolved by name against the block's
/// evolving SPJ schema.
class BlockBuilder {
 public:
  /// Adds the first input: a base table scan.
  BlockBuilder& Scan(const std::string& table);

  /// Adds the first input: the output of an upstream aggregate block.
  BlockBuilder& ScanBlock(int block_id);

  /// Joins a base table on equi-keys: prefix_cols name columns of the
  /// already-joined inputs, table_cols name columns of `table`.
  BlockBuilder& Join(const std::string& table,
                     const std::vector<std::string>& prefix_cols,
                     const std::vector<std::string>& table_cols);

  /// Joins the output of an upstream aggregate block.
  BlockBuilder& JoinBlock(int block_id,
                          const std::vector<std::string>& prefix_cols,
                          const std::vector<std::string>& block_cols);

  /// Sets (replaces) the block filter.
  BlockBuilder& Filter(ExprPtr predicate);

  /// Adds a group-by key column (by name).
  BlockBuilder& GroupBy(const std::string& column);

  /// Adds an aggregate `fn_name(arg)` named `output_name`. fn_name names a
  /// definition in the builder's function registry, and `arg` must fit its
  /// signature.
  BlockBuilder& Agg(const std::string& fn_name, ExprPtr arg,
                    std::string output_name);

  /// Adds an output projection (non-aggregate top blocks only).
  BlockBuilder& Project(ExprPtr expr, std::string name);

  /// Resolves a column of the current SPJ schema to an expression.
  ExprPtr ColRef(const std::string& name);

  /// Builds a reference to a scalar (ungrouped) aggregate of an upstream
  /// block: the compiled form of an uncorrelated scalar subquery.
  ExprPtr SubqueryRef(int block_id, const std::string& agg_column);

  /// Keyed reference: the compiled form of a correlated subquery — the
  /// upstream group whose key equals `key_exprs` evaluated on this block's
  /// current row.
  ExprPtr SubqueryRef(int block_id, const std::string& agg_column,
                      std::vector<ExprPtr> key_exprs);

  int id() const { return block_.id; }

 private:
  friend class PlanBuilder;
  BlockBuilder(PlanBuilder* parent, int id);

  void AddInput(BlockInput input, const std::vector<std::string>& prefix_cols,
                const std::vector<std::string>& input_cols);
  void RecordError(Status status);

  PlanBuilder* parent_;
  Block block_;
};

/// Builds a QueryPlan programmatically. Usage:
///
///   PlanBuilder pb(&catalog, registry);
///   auto& inner = pb.NewBlock("inner_avg");
///   inner.Scan("sessions").Agg("avg", inner.ColRef("buffer_time"), "a");
///   auto& outer = pb.NewBlock("sbi");
///   outer.Scan("sessions")
///       .Filter(Gt(outer.ColRef("buffer_time"),
///                  outer.SubqueryRef(inner.id(), "a")))
///       .Agg("avg", outer.ColRef("play_time"), "avg_play");
///   IOLAP_ASSIGN_OR_RETURN(QueryPlan plan, pb.Build());
///
/// Blocks must be created in dependency order (the SQL binder and the
/// workload query definitions both do this naturally).
class PlanBuilder {
 public:
  PlanBuilder(const Catalog* catalog,
              std::shared_ptr<const FunctionRegistry> functions);

  /// Starts a new block. The returned reference stays valid until Build().
  BlockBuilder& NewBlock(std::string debug_name);

  /// Finalizes and validates the plan.
  Result<QueryPlan> Build();

 private:
  friend class BlockBuilder;

  const Catalog* catalog_;
  std::shared_ptr<const FunctionRegistry> functions_;
  std::vector<std::unique_ptr<BlockBuilder>> builders_;
  Status first_error_;
};

}  // namespace iolap

#endif  // IOLAP_PLAN_PLAN_BUILDER_H_
