#ifndef IOLAP_PLAN_PLAN_VERIFIER_H_
#define IOLAP_PLAN_PLAN_VERIFIER_H_

#include <string>

#include "exec/expr_program.h"
#include "plan/logical_plan.h"

namespace iolap {

// Plan invariant prover: the upward half of the program verifier
// (exec/program_verifier.h). ProgramVerifier proves a program is internally
// sound; this pass proves the program *matches the plan fragment it will
// execute for* — the contract BlockExecutor otherwise takes on faith when
// it evaluates every row of the block through the program.
// Like the bytecode verifier it runs once per block at query Init, and a
// failure fails the Init. See docs/INTERNALS.md §10.

struct PlanVerifyResult {
  bool ok = true;
  std::string message;
};

/// Which plan fragment a compiled program claims to implement.
enum class ProgramRole {
  /// Per-row program: root 0 is the filter (when the block has one),
  /// followed by one root per group-by key, then one per aggregate
  /// argument, in aggs order.
  kRowProgram,
  /// Projection program of a pure-SPJ block: one root per projection.
  kProjection,
};

/// Statically checks `program` against `block` of `plan`:
///   - root count matches the fragment (filter + group keys + agg args, or
///     projections);
///   - root register kinds agree with the plan's static output types
///     (a string-typed expression must land in a string register and vice
///     versa);
///   - every row load stays inside the block's SPJ schema;
///   - every aggregate probe site targets a strictly-upstream aggregate
///     block, a column inside that block's output schema (group keys first,
///     then aggregates — the AggregateRegistry::Lookup convention), with
///     exactly as many key registers as the source block has group keys.
/// Key *liveness* at probe time is the bytecode verifier's def-before-use
/// obligation; this pass proves the keys' arity against the plan.
PlanVerifyResult VerifyBlockProgram(const QueryPlan& plan, const Block& block,
                                    const ExprProgram& program,
                                    ProgramRole role);

}  // namespace iolap

#endif  // IOLAP_PLAN_PLAN_VERIFIER_H_
