#ifndef IOLAP_PLAN_LOGICAL_PLAN_H_
#define IOLAP_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/expr.h"
#include "core/function_registry.h"
#include "core/schema.h"

namespace iolap {

/// One aggregate output of a block: `fn(arg)` named `output_name`. `fn` is
/// the definition registered in the plan's function registry, which keeps
/// it alive.
struct AggSpec {
  const AggregateFunction* fn = nullptr;
  ExprPtr arg;  // over the block's SPJ row layout
  std::string output_name;
};

/// One input relation of a block's select-project-join stage: either a base
/// table from the catalog or the keyed aggregate output of an upstream
/// block (the cross-lineage-block edge of §6.1).
struct BlockInput {
  enum class Kind { kBaseTable, kBlockOutput };

  Kind kind = Kind::kBaseTable;

  // kBaseTable fields.
  std::string table_name;
  bool streamed = false;  // resolved against the catalog at bind time

  // kBlockOutput fields.
  int source_block = -1;

  /// This input's column layout (copied from the table / upstream output).
  Schema schema;

  /// Equi-join condition attaching this input to the join prefix
  /// (inputs[0..k-1] concatenated): prefix_key_cols index the prefix
  /// schema, input_key_cols index this input's schema. Both empty for
  /// inputs[0]. Equal lengths; empty for a cross join.
  std::vector<int> prefix_key_cols;
  std::vector<int> input_key_cols;
};

/// A lineage block (§6.1): a maximal SPJA sub-plan. The mini-batch delta
/// engine executes a query as a DAG of blocks; aggregate outputs cross
/// block boundaries only as `(block, group-key) → value` references
/// (AggLookupExpr), which is exactly the paper's block-wise lineage.
///
/// Row layout inside the block is the SPJ layout: the concatenation of the
/// input schemas. `filter`, `group_by`, aggregate args and `projections`
/// are all expressions over that layout; projection-to-output happens at
/// the block boundary, so the non-deterministic set U can be stored in one
/// canonical layout.
struct Block {
  int id = 0;
  std::string debug_name;

  std::vector<BlockInput> inputs;

  /// Concatenation of input schemas (computed by the builder).
  Schema spj_schema;

  /// Filter over spj rows; may reference upstream aggregates via
  /// AggLookupExpr (that is what makes its decisions uncertain). Null =
  /// no filter.
  ExprPtr filter;

  /// Aggregate stage. A block with no aggs and no group_by is a pure SPJ
  /// block (only valid as the top block, feeding the sink).
  std::vector<ExprPtr> group_by;            // over spj rows; deterministic
  std::vector<std::string> group_by_names;  // output names of the keys
  std::vector<AggSpec> aggs;

  /// For a non-aggregate (top) block: the output projection over spj rows.
  std::vector<ExprPtr> projections;
  std::vector<std::string> projection_names;

  /// Output schema: group_by + aggs for aggregate blocks, projections
  /// otherwise (OutputSchema, set by the builder).
  Schema output_schema;

  bool has_aggregate() const { return !aggs.empty() || !group_by.empty(); }
};

/// Derives a block's output schema: the group keys then one column per
/// aggregate, typed by its definition's signature, for an aggregate block;
/// the projections otherwise.
Schema OutputSchema(const Block& block);

/// Presentation of the final result (ORDER BY / LIMIT): applied by the
/// controller to every delivered partial result, after the incremental
/// semantics — it never affects what is computed, only how it is shown.
struct Presentation {
  struct Key {
    int column = 0;  // index into the top block's output schema
    bool descending = false;
  };
  std::vector<Key> order_by;
  int64_t limit = -1;  // -1 = unlimited

  bool empty() const { return order_by.empty() && limit < 0; }
};

/// A bound query: a DAG of lineage blocks in topological order (every
/// block's AggLookup references and kBlockOutput inputs point to blocks
/// with smaller indexes). blocks.back() is the top block whose output the
/// sink delivers to the user.
struct QueryPlan {
  std::vector<Block> blocks;
  /// Owns the functions the plan's CallExprs and AggSpecs point to.
  std::shared_ptr<const FunctionRegistry> functions;
  /// Name of the (single) streamed relation; empty if none (fully static
  /// query, executed in one batch).
  std::string streamed_table;
  Presentation presentation;

  const Block& top() const { return blocks.back(); }

  std::string ToString() const;
};

/// Structural validation: topological order, key-arity match, column
/// indexes in range, group keys deterministic, exactly one streamed table,
/// sampled aggregates smooth (§3.3). Run by the builder and the binder.
Status ValidatePlan(const QueryPlan& plan);

}  // namespace iolap

#endif  // IOLAP_PLAN_LOGICAL_PLAN_H_
