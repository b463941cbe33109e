#include "plan/logical_plan.h"

namespace iolap {

namespace {

Status ValidateExprColumns(const ExprPtr& expr, size_t width,
                           const std::string& where) {
  if (expr == nullptr) return Status::OK();
  switch (expr->kind()) {
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(*expr);
      if (ref.index() < 0 || static_cast<size_t>(ref.index()) >= width) {
        return Status::Internal("column index out of range in " + where + ": " +
                                expr->ToString());
      }
      return Status::OK();
    }
    case Expr::Kind::kUnary: {
      const auto& e = static_cast<const UnaryExpr&>(*expr);
      return ValidateExprColumns(e.operand(), width, where);
    }
    case Expr::Kind::kBinary: {
      const auto& e = static_cast<const BinaryExpr&>(*expr);
      IOLAP_RETURN_IF_ERROR(ValidateExprColumns(e.left(), width, where));
      return ValidateExprColumns(e.right(), width, where);
    }
    case Expr::Kind::kCall: {
      const auto& e = static_cast<const CallExpr&>(*expr);
      for (const auto& arg : e.args()) {
        IOLAP_RETURN_IF_ERROR(ValidateExprColumns(arg, width, where));
      }
      return Status::OK();
    }
    case Expr::Kind::kAggLookup: {
      const auto& e = static_cast<const AggLookupExpr&>(*expr);
      for (const auto& key : e.key_exprs()) {
        IOLAP_RETURN_IF_ERROR(ValidateExprColumns(key, width, where));
      }
      return Status::OK();
    }
    case Expr::Kind::kLiteral:
      return Status::OK();
  }
  return Status::OK();
}

Status ValidateAggLookupTargets(const ExprPtr& expr, const QueryPlan& plan,
                                int block_id) {
  if (expr == nullptr) return Status::OK();
  std::vector<const AggLookupExpr*> lookups;
  expr->CollectAggLookups(&lookups);
  for (const AggLookupExpr* lookup : lookups) {
    if (lookup->block_id() < 0 || lookup->block_id() >= block_id) {
      return Status::Internal(
          "AggLookup must reference an earlier block (topological order): " +
          lookup->ToString());
    }
    const Block& target = plan.blocks[lookup->block_id()];
    if (!target.has_aggregate()) {
      return Status::Internal("AggLookup references non-aggregate block " +
                              std::to_string(lookup->block_id()));
    }
    if (lookup->agg_col() < 0 ||
        static_cast<size_t>(lookup->agg_col()) >=
            target.output_schema.num_columns()) {
      return Status::Internal("AggLookup column out of range: " +
                              lookup->ToString());
    }
    if (lookup->key_exprs().size() != target.group_by.size()) {
      return Status::Internal("AggLookup key arity mismatch: " +
                              lookup->ToString());
    }
  }
  return Status::OK();
}

}  // namespace

Schema OutputSchema(const Block& block) {
  Schema out;
  if (!block.has_aggregate()) {
    for (size_t i = 0; i < block.projections.size(); ++i) {
      out.AddColumn(Column(block.projection_names[i],
                           block.projections[i]->output_type()));
    }
    return out;
  }
  for (size_t i = 0; i < block.group_by.size(); ++i) {
    out.AddColumn(
        Column(block.group_by_names[i], block.group_by[i]->output_type()));
  }
  for (const AggSpec& agg : block.aggs) {
    out.AddColumn(Column(agg.output_name, agg.fn->signature.ResultType(
                                              {agg.arg->output_type()})));
  }
  return out;
}

std::string QueryPlan::ToString() const {
  std::string out;
  for (const Block& block : blocks) {
    out += "Block " + std::to_string(block.id);
    if (!block.debug_name.empty()) out += " (" + block.debug_name + ")";
    out += ":\n";
    for (const BlockInput& input : block.inputs) {
      out += "  input: ";
      if (input.kind == BlockInput::Kind::kBaseTable) {
        out += input.table_name;
        if (input.streamed) out += " [streamed]";
      } else {
        out += "block#" + std::to_string(input.source_block);
      }
      if (!input.input_key_cols.empty()) {
        out += " joined on " + std::to_string(input.input_key_cols.size()) +
               " key(s)";
      }
      out += "\n";
    }
    if (block.filter != nullptr) {
      out += "  filter: " + block.filter->ToString() + "\n";
    }
    if (block.has_aggregate()) {
      out += "  group by:";
      for (const auto& g : block.group_by) out += " " + g->ToString();
      out += "\n  aggs:";
      for (const auto& agg : block.aggs) {
        out += " " + agg.fn->name + "(" + agg.arg->ToString() + ") as " +
               agg.output_name;
      }
      out += "\n";
    } else {
      out += "  project:";
      for (size_t i = 0; i < block.projections.size(); ++i) {
        out += " " + block.projections[i]->ToString() + " as " +
               block.projection_names[i];
      }
      out += "\n";
    }
    out += "  output: " + block.output_schema.ToString() + "\n";
  }
  return out;
}

Status ValidatePlan(const QueryPlan& plan) {
  if (plan.blocks.empty()) {
    return Status::Internal("plan has no blocks");
  }
  if (plan.functions == nullptr) {
    return Status::Internal("plan has no function registry");
  }
  int streamed_inputs = 0;
  for (size_t b = 0; b < plan.blocks.size(); ++b) {
    const Block& block = plan.blocks[b];
    if (block.id != static_cast<int>(b)) {
      return Status::Internal("block ids must equal their position");
    }
    if (block.inputs.empty()) {
      return Status::Internal("block has no inputs");
    }
    size_t width = 0;
    for (size_t i = 0; i < block.inputs.size(); ++i) {
      const BlockInput& input = block.inputs[i];
      if (input.kind == BlockInput::Kind::kBlockOutput) {
        if (input.source_block < 0 || input.source_block >= block.id) {
          return Status::Internal("block input must reference earlier block");
        }
        const Block& src = plan.blocks[input.source_block];
        if (!src.has_aggregate()) {
          return Status::Internal(
              "block-output inputs must come from aggregate blocks");
        }
      } else if (input.streamed) {
        ++streamed_inputs;
      }
      if (input.prefix_key_cols.size() != input.input_key_cols.size()) {
        return Status::Internal("join key arity mismatch");
      }
      if (i == 0 && !input.prefix_key_cols.empty()) {
        return Status::Internal("first input cannot carry a join condition");
      }
      for (int k : input.prefix_key_cols) {
        if (k < 0 || static_cast<size_t>(k) >= width) {
          return Status::Internal("prefix join key out of range");
        }
      }
      for (int k : input.input_key_cols) {
        if (k < 0 || static_cast<size_t>(k) >= input.schema.num_columns()) {
          return Status::Internal("input join key out of range");
        }
      }
      width += input.schema.num_columns();
    }
    if (width != block.spj_schema.num_columns()) {
      return Status::Internal("spj_schema width mismatch");
    }

    IOLAP_RETURN_IF_ERROR(
        ValidateExprColumns(block.filter, width, "filter"));
    IOLAP_RETURN_IF_ERROR(
        ValidateAggLookupTargets(block.filter, plan, block.id));
    for (const auto& g : block.group_by) {
      IOLAP_RETURN_IF_ERROR(ValidateExprColumns(g, width, "group_by"));
      if (g->DependsOnUncertain(nullptr)) {
        return Status::InvalidArgument(
            "group-by keys over uncertain aggregates are unsupported (§3.3)");
      }
    }
    for (const auto& agg : block.aggs) {
      if (agg.fn == nullptr || agg.arg == nullptr) {
        return Status::Internal("incomplete aggregate spec");
      }
      IOLAP_RETURN_IF_ERROR(ValidateExprColumns(agg.arg, width, "agg arg"));
      IOLAP_RETURN_IF_ERROR(ValidateAggLookupTargets(agg.arg, plan, block.id));
    }
    for (const auto& p : block.projections) {
      IOLAP_RETURN_IF_ERROR(ValidateExprColumns(p, width, "projection"));
      IOLAP_RETURN_IF_ERROR(ValidateAggLookupTargets(p, plan, block.id));
    }
    if (block.has_aggregate()) {
      if (block.group_by.size() != block.group_by_names.size()) {
        return Status::Internal("group_by_names size mismatch");
      }
      if (block.output_schema.num_columns() !=
          block.group_by.size() + block.aggs.size()) {
        return Status::Internal("aggregate output schema width mismatch");
      }
    } else {
      if (block.projections.empty()) {
        return Status::Internal("non-aggregate block needs projections");
      }
      if (block.projections.size() != block.projection_names.size() ||
          block.projections.size() != block.output_schema.num_columns()) {
        return Status::Internal("projection output schema width mismatch");
      }
      if (b + 1 != plan.blocks.size()) {
        return Status::Internal(
            "only the top block may be a pure SPJ block; inner blocks must "
            "aggregate");
      }
    }
  }
  // Exactly one streamed base relation (possibly scanned by several blocks).
  if (!plan.streamed_table.empty() && streamed_inputs == 0) {
    return Status::Internal("streamed table is never scanned");
  }
  return Status::OK();
}

}  // namespace iolap
