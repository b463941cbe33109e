#ifndef IOLAP_PLAN_LINEAGE_BLOCKS_H_
#define IOLAP_PLAN_LINEAGE_BLOCKS_H_

#include <vector>

#include "core/expr.h"
#include "plan/logical_plan.h"

namespace iolap {

/// Computes the per-column lineage of a block's SPJ row layout (§6.1).
///
/// Deterministic columns (base-table columns, group keys of upstream
/// outputs) get a null entry. Aggregate columns pulled in from an upstream
/// block's output get an AggLookupExpr keyed by the group-key columns of
/// that same input — the compile-time extraction of the paper's lineage
/// function, with only the per-row key left to evaluate at runtime.
///
/// The result vector is indexed by SPJ column and is what EvalContext's
/// `column_lineage` expects: evaluation of a column reference re-derives
/// the column through this expression, and so does every pass of a
/// compiled program (the OPT2 lazy refresh), so a stored row's stale value
/// of the column is never read.
std::vector<ExprPtr> ComputeSpjLineage(const QueryPlan& plan,
                                       const Block& block);

}  // namespace iolap

#endif  // IOLAP_PLAN_LINEAGE_BLOCKS_H_
