#include "plan/plan_builder.h"

namespace iolap {

BlockBuilder::BlockBuilder(PlanBuilder* parent, int id) : parent_(parent) {
  block_.id = id;
}

void BlockBuilder::RecordError(Status status) {
  if (parent_->first_error_.ok()) parent_->first_error_ = std::move(status);
}

BlockBuilder& BlockBuilder::Scan(const std::string& table) {
  auto entry = parent_->catalog_->Find(table);
  if (!entry.ok()) {
    RecordError(entry.status());
    return *this;
  }
  BlockInput input;
  input.kind = BlockInput::Kind::kBaseTable;
  input.table_name = table;
  input.streamed = (*entry)->streamed;
  input.schema = (*entry)->table->schema();
  AddInput(std::move(input), {}, {});
  return *this;
}

BlockBuilder& BlockBuilder::ScanBlock(int block_id) {
  if (block_id < 0 || block_id >= block_.id) {
    RecordError(Status::InvalidArgument("ScanBlock: bad block id"));
    return *this;
  }
  BlockInput input;
  input.kind = BlockInput::Kind::kBlockOutput;
  input.source_block = block_id;
  input.schema = parent_->builders_[block_id]->block_.output_schema;
  AddInput(std::move(input), {}, {});
  return *this;
}

BlockBuilder& BlockBuilder::Join(const std::string& table,
                                 const std::vector<std::string>& prefix_cols,
                                 const std::vector<std::string>& table_cols) {
  auto entry = parent_->catalog_->Find(table);
  if (!entry.ok()) {
    RecordError(entry.status());
    return *this;
  }
  BlockInput input;
  input.kind = BlockInput::Kind::kBaseTable;
  input.table_name = table;
  input.streamed = (*entry)->streamed;
  input.schema = (*entry)->table->schema();
  AddInput(std::move(input), prefix_cols, table_cols);
  return *this;
}

BlockBuilder& BlockBuilder::JoinBlock(
    int block_id, const std::vector<std::string>& prefix_cols,
    const std::vector<std::string>& block_cols) {
  if (block_id < 0 || block_id >= block_.id) {
    RecordError(Status::InvalidArgument("JoinBlock: bad block id"));
    return *this;
  }
  BlockInput input;
  input.kind = BlockInput::Kind::kBlockOutput;
  input.source_block = block_id;
  input.schema = parent_->builders_[block_id]->block_.output_schema;
  AddInput(std::move(input), prefix_cols, block_cols);
  return *this;
}

void BlockBuilder::AddInput(BlockInput input,
                            const std::vector<std::string>& prefix_cols,
                            const std::vector<std::string>& input_cols) {
  if (prefix_cols.size() != input_cols.size()) {
    RecordError(Status::InvalidArgument("join key arity mismatch"));
    return;
  }
  if (block_.inputs.empty() && !prefix_cols.empty()) {
    RecordError(
        Status::InvalidArgument("first input cannot carry a join condition"));
    return;
  }
  for (const std::string& name : prefix_cols) {
    auto col = block_.spj_schema.FindColumn(name);
    if (!col.ok()) {
      RecordError(col.status());
      return;
    }
    input.prefix_key_cols.push_back(*col);
  }
  for (const std::string& name : input_cols) {
    auto col = input.schema.FindColumn(name);
    if (!col.ok()) {
      RecordError(col.status());
      return;
    }
    input.input_key_cols.push_back(*col);
  }
  block_.spj_schema = block_.spj_schema.Concat(input.schema);
  block_.inputs.push_back(std::move(input));
}

BlockBuilder& BlockBuilder::Filter(ExprPtr predicate) {
  if (block_.filter != nullptr) {
    block_.filter = And(block_.filter, std::move(predicate));
  } else {
    block_.filter = std::move(predicate);
  }
  return *this;
}

BlockBuilder& BlockBuilder::GroupBy(const std::string& column) {
  ExprPtr ref = ColRef(column);
  if (ref != nullptr) {
    block_.group_by.push_back(ref);
    block_.group_by_names.push_back(column);
  }
  return *this;
}

BlockBuilder& BlockBuilder::Agg(const std::string& fn_name, ExprPtr arg,
                                std::string output_name) {
  auto fn = parent_->functions_->FindAggregate(fn_name);
  if (!fn.ok()) {
    RecordError(fn.status());
    return *this;
  }
  if (!(*fn)->signature.Accepts(0, arg->output_type())) {
    RecordError(Status::BindError(
        "aggregate " + fn_name + " cannot take a " +
        ValueTypeToString(arg->output_type()) + " argument"));
    return *this;
  }
  block_.aggs.push_back(AggSpec{*fn, std::move(arg), std::move(output_name)});
  return *this;
}

BlockBuilder& BlockBuilder::Project(ExprPtr expr, std::string name) {
  block_.projections.push_back(std::move(expr));
  block_.projection_names.push_back(std::move(name));
  return *this;
}

ExprPtr BlockBuilder::ColRef(const std::string& name) {
  auto col = block_.spj_schema.FindColumn(name);
  if (!col.ok()) {
    RecordError(col.status());
    return Lit(Value::Null());
  }
  return Col(*col, block_.spj_schema.column(*col).name,
             block_.spj_schema.column(*col).type);
}

ExprPtr BlockBuilder::SubqueryRef(int block_id,
                                  const std::string& agg_column) {
  return SubqueryRef(block_id, agg_column, {});
}

ExprPtr BlockBuilder::SubqueryRef(int block_id, const std::string& agg_column,
                                  std::vector<ExprPtr> key_exprs) {
  if (block_id < 0 || block_id >= block_.id) {
    RecordError(Status::InvalidArgument("SubqueryRef: bad block id"));
    return Lit(Value::Null());
  }
  const Block& target = parent_->builders_[block_id]->block_;
  auto col = target.output_schema.FindColumn(agg_column);
  if (!col.ok()) {
    RecordError(col.status());
    return Lit(Value::Null());
  }
  if (key_exprs.size() != target.group_by.size()) {
    RecordError(Status::InvalidArgument(
        "SubqueryRef key arity does not match target group-by"));
    return Lit(Value::Null());
  }
  return std::make_shared<AggLookupExpr>(
      block_id, *col, std::move(key_exprs),
      target.output_schema.column(*col).type, agg_column);
}

PlanBuilder::PlanBuilder(const Catalog* catalog,
                         std::shared_ptr<const FunctionRegistry> functions)
    : catalog_(catalog), functions_(std::move(functions)) {}

BlockBuilder& PlanBuilder::NewBlock(std::string debug_name) {
  // Finalize the previous block's output schema so later blocks can
  // reference it via ScanBlock/JoinBlock/SubqueryRef.
  if (!builders_.empty()) {
    Block& prev = builders_.back()->block_;
    prev.output_schema = OutputSchema(prev);
  }
  auto builder =
      std::unique_ptr<BlockBuilder>(new BlockBuilder(this, builders_.size()));
  builder->block_.debug_name = std::move(debug_name);
  builders_.push_back(std::move(builder));
  return *builders_.back();
}

Result<QueryPlan> PlanBuilder::Build() {
  IOLAP_RETURN_IF_ERROR(first_error_);
  if (builders_.empty()) {
    return Status::InvalidArgument("plan has no blocks");
  }
  QueryPlan plan;
  plan.functions = functions_;
  for (auto& builder : builders_) {
    Block& block = builder->block_;
    block.output_schema = OutputSchema(block);
    // Track the streamed relation.
    for (const BlockInput& input : block.inputs) {
      if (input.kind == BlockInput::Kind::kBaseTable && input.streamed) {
        if (!plan.streamed_table.empty() &&
            plan.streamed_table != input.table_name) {
          return Status::InvalidArgument(
              "queries may stream at most one relation (got " +
              plan.streamed_table + " and " + input.table_name + ")");
        }
        plan.streamed_table = input.table_name;
      }
    }
    plan.blocks.push_back(std::move(block));
  }
  IOLAP_RETURN_IF_ERROR(ValidatePlan(plan));
  return plan;
}

}  // namespace iolap
