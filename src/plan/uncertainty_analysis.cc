#include "plan/uncertainty_analysis.h"

#include "plan/lineage_blocks.h"

namespace iolap {

namespace {

bool ExprReferencesAggLookup(const ExprPtr& expr) {
  if (expr == nullptr) return false;
  std::vector<const AggLookupExpr*> lookups;
  expr->CollectAggLookups(&lookups);
  return !lookups.empty();
}

}  // namespace

Result<std::vector<BlockAnnotations>> AnalyzeUncertainty(
    const QueryPlan& plan) {
  std::vector<BlockAnnotations> annotations(plan.blocks.size());

  // Which blocks feed a downstream *multi-input* join (as opposed to
  // single-input snapshot consumers, which re-evaluate the producer's full
  // output per batch and tolerate revocable membership), and which are
  // referenced through scalar AggLookups?
  std::vector<bool> feeds_join(plan.blocks.size(), false);
  std::vector<bool> scalar_referenced(plan.blocks.size(), false);
  for (const Block& block : plan.blocks) {
    const bool snapshot_consumer =
        block.inputs.size() == 1 &&
        block.inputs[0].kind == BlockInput::Kind::kBlockOutput;
    for (const BlockInput& input : block.inputs) {
      if (input.kind == BlockInput::Kind::kBlockOutput && !snapshot_consumer) {
        feeds_join[input.source_block] = true;
      }
    }
    std::vector<const AggLookupExpr*> lookups;
    if (block.filter != nullptr) block.filter->CollectAggLookups(&lookups);
    for (const AggSpec& agg : block.aggs) agg.arg->CollectAggLookups(&lookups);
    for (const ExprPtr& p : block.projections) p->CollectAggLookups(&lookups);
    for (const AggLookupExpr* lookup : lookups) {
      scalar_referenced[lookup->block_id()] = true;
    }
  }

  for (size_t b = 0; b < plan.blocks.size(); ++b) {
    const Block& block = plan.blocks[b];
    BlockAnnotations& ann = annotations[b];

    ann.spj_lineage = ComputeSpjLineage(plan, block);
    ann.spj_attr_uncertain.resize(ann.spj_lineage.size());
    for (size_t c = 0; c < ann.spj_lineage.size(); ++c) {
      ann.spj_attr_uncertain[c] = ann.spj_lineage[c] != nullptr;
    }

    // Dynamic: any streamed scan, or any input from a dynamic block.
    for (const BlockInput& input : block.inputs) {
      if (input.kind == BlockInput::Kind::kBaseTable) {
        ann.dynamic = ann.dynamic || input.streamed;
      } else {
        ann.dynamic = ann.dynamic || annotations[input.source_block].dynamic;
      }
    }

    // SELECT rule (§4.1 / §5.2): the filter creates tuple uncertainty when
    // it reads uncertain attributes — via a scalar/correlated AggLookup or
    // via an uncertain SPJ column.
    ann.filter_uncertain =
        block.filter != nullptr &&
        block.filter->DependsOnUncertain(&ann.spj_lineage);

    ann.depends_on_uncertain =
        ann.filter_uncertain || ExprReferencesAggLookup(block.filter);
    for (size_t c = 0; c < ann.spj_attr_uncertain.size() &&
                       !ann.depends_on_uncertain;
         ++c) {
      ann.depends_on_uncertain = ann.spj_attr_uncertain[c];
    }

    ann.agg_arg_uncertain.resize(block.aggs.size(), false);
    for (size_t a = 0; a < block.aggs.size(); ++a) {
      ann.agg_arg_uncertain[a] =
          block.aggs[a].arg->DependsOnUncertain(&ann.spj_lineage);
      ann.depends_on_uncertain =
          ann.depends_on_uncertain || ann.agg_arg_uncertain[a];
      if (ann.dynamic && !block.aggs[a].fn->smooth) {
        return Status::InvalidArgument(
            "aggregate '" + block.aggs[a].fn->name +
            "' is not smooth under sampling and cannot run over the "
            "streamed relation (§3.3); drop it or un-stream the input");
      }
    }
    for (const ExprPtr& p : block.projections) {
      ann.depends_on_uncertain =
          ann.depends_on_uncertain || p->DependsOnUncertain(&ann.spj_lineage);
    }

    // Output tags.
    if (block.has_aggregate()) {
      ann.output_attr_uncertain.resize(block.output_schema.num_columns(),
                                       false);
      // AGGREGATE rule (§4.1): an aggregate value is uncertain if any
      // contributing tuple has tuple uncertainty (still-streaming input or
      // uncertain filter decisions) or reads uncertain attributes.
      for (size_t a = 0; a < block.aggs.size(); ++a) {
        ann.output_attr_uncertain[block.group_by.size() + a] =
            ann.dynamic || ann.filter_uncertain || ann.agg_arg_uncertain[a];
      }
      // Group membership is append-only (monotone sampling, §4.1), so seen
      // groups are certain — unless they exist only through uncertain
      // filter decisions.
      ann.output_tuple_uncertain = ann.filter_uncertain;
    } else {
      ann.output_attr_uncertain.resize(block.projections.size(), false);
      for (size_t p = 0; p < block.projections.size(); ++p) {
        ann.output_attr_uncertain[p] =
            block.projections[p]->DependsOnUncertain(&ann.spj_lineage);
      }
      ann.output_tuple_uncertain = ann.filter_uncertain || ann.dynamic;
    }

    if (feeds_join[b] && ann.filter_uncertain) {
      return Status::InvalidArgument(
          "block '" + block.debug_name +
          "' has an uncertain filter but feeds a downstream join input; "
          "push the predicate into the consuming block (the SQL binder "
          "does this for HAVING/IN subqueries)");
    }
    if (scalar_referenced[b] && ann.filter_uncertain) {
      return Status::InvalidArgument(
          "block '" + block.debug_name +
          "' has an uncertain filter but is referenced through a scalar "
          "aggregate lookup; its group membership could regress, leaving "
          "stale lookup entries. Restructure the query so the uncertain "
          "predicate sits in the consuming block");
    }
  }
  return annotations;
}

}  // namespace iolap
