#include "plan/plan_verifier.h"

#include <vector>

#include "core/expr.h"

namespace iolap {

namespace {

PlanVerifyResult Fail(std::string message) {
  return {false, std::move(message)};
}

}  // namespace

PlanVerifyResult VerifyBlockProgram(const QueryPlan& plan, const Block& block,
                                    const ExprProgram& program,
                                    ProgramRole role) {
  // Root arity and kind agreement against the plan's static types. The
  // binder fixed every expression's output_type before planning, so a
  // compiled root landing in the wrong register file would make
  // BlockExecutor read garbage (RootTruthy of a string register is
  // constant-false, RootValue boxes the wrong file).
  std::vector<const Expr*> expected;
  if (role == ProgramRole::kRowProgram) {
    if (block.filter != nullptr) expected.push_back(block.filter.get());
    for (const ExprPtr& key : block.group_by) expected.push_back(key.get());
    for (const AggSpec& agg : block.aggs) expected.push_back(agg.arg.get());
  } else {
    for (const ExprPtr& proj : block.projections) {
      expected.push_back(proj.get());
    }
  }
  if (program.num_roots() != expected.size()) {
    return Fail("block " + std::to_string(block.id) + ": program has " +
                std::to_string(program.num_roots()) + " roots, plan expects " +
                std::to_string(expected.size()));
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    const bool plan_str = expected[r]->output_type() == ValueType::kString;
    if (program.root_is_string(r) != plan_str) {
      return Fail("block " + std::to_string(block.id) + ": root " +
                  std::to_string(r) + " is a " +
                  (program.root_is_string(r) ? "string" : "numeric") +
                  " register but the plan types it " +
                  ValueTypeToString(expected[r]->output_type()));
    }
  }

  // Row loads must fit the SPJ schema every joined row actually has; the
  // bytecode verifier proved no load exceeds max_col(), so bounding the
  // claim bounds every access.
  if (program.max_col() >= static_cast<int>(block.spj_schema.num_columns())) {
    return Fail("block " + std::to_string(block.id) +
                ": program loads column " + std::to_string(program.max_col()) +
                " but the SPJ schema has " +
                std::to_string(block.spj_schema.num_columns()) + " columns");
  }

  // Aggregate probe sites must target strictly-upstream aggregate blocks
  // with the registry's column convention (group keys first, then
  // aggregates) and one key register per group key.
  for (size_t i = 0; i < program.num_agg_sites(); ++i) {
    const ExprProgram::AggSiteView site = program.agg_site_view(i);
    if (site.block_id < 0 || site.block_id >= block.id) {
      return Fail("block " + std::to_string(block.id) + ": agg site " +
                  std::to_string(i) + " targets block " +
                  std::to_string(site.block_id) +
                  " which is not strictly upstream");
    }
    const Block& source = plan.blocks[site.block_id];
    if (!source.has_aggregate()) {
      return Fail("block " + std::to_string(block.id) + ": agg site " +
                  std::to_string(i) + " targets non-aggregate block " +
                  std::to_string(site.block_id));
    }
    if (site.col < 0 ||
        site.col >= static_cast<int>(source.output_schema.num_columns())) {
      return Fail("block " + std::to_string(block.id) + ": agg site " +
                  std::to_string(i) + " reads column " +
                  std::to_string(site.col) + " of block " +
                  std::to_string(site.block_id) + " whose output has " +
                  std::to_string(source.output_schema.num_columns()) +
                  " columns");
    }
    if (site.num_keys != source.group_by.size()) {
      return Fail("block " + std::to_string(block.id) + ": agg site " +
                  std::to_string(i) + " probes with " +
                  std::to_string(site.num_keys) + " keys but block " +
                  std::to_string(site.block_id) + " groups by " +
                  std::to_string(source.group_by.size()) + " keys");
    }
  }

  return {};
}

}  // namespace iolap
