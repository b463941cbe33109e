#include "sql/binder.h"

#include <deque>
#include <map>
#include <set>

namespace iolap {

namespace {

// The unqualified tail of a column name.
std::string BaseName(const std::string& name) {
  const size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

void FlattenConjuncts(const AstExprPtr& expr, std::vector<AstExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == AstExpr::Kind::kBinary && expr->name == "and") {
    FlattenConjuncts(expr->args[0], out);
    FlattenConjuncts(expr->args[1], out);
    return;
  }
  out->push_back(expr);
}

Expr::BinaryOp BinaryOpFromName(const std::string& name) {
  if (name == "+") return Expr::BinaryOp::kAdd;
  if (name == "-") return Expr::BinaryOp::kSub;
  if (name == "*") return Expr::BinaryOp::kMul;
  if (name == "/") return Expr::BinaryOp::kDiv;
  if (name == "%") return Expr::BinaryOp::kMod;
  if (name == "<") return Expr::BinaryOp::kLt;
  if (name == "<=") return Expr::BinaryOp::kLe;
  if (name == ">") return Expr::BinaryOp::kGt;
  if (name == ">=") return Expr::BinaryOp::kGe;
  if (name == "=") return Expr::BinaryOp::kEq;
  if (name == "<>") return Expr::BinaryOp::kNe;
  if (name == "and") return Expr::BinaryOp::kAnd;
  return Expr::BinaryOp::kOr;
}

}  // namespace

// ---------------------------------------------------------------- Impl

class Binder::Impl {
 public:
  Impl(const Catalog* catalog,
       std::shared_ptr<const FunctionRegistry> functions)
      : catalog_(catalog), functions_(std::move(functions)) {
    plan_.functions = functions_;
  }

  Result<QueryPlan> Bind(const SelectStmt& stmt) {
    IOLAP_RETURN_IF_ERROR(BindSelect(stmt, /*outer=*/nullptr));
    // Blocks were built in a deque for pointer stability; materialize the
    // plan vector.
    plan_.blocks.assign(blocks_.begin(), blocks_.end());
    IOLAP_RETURN_IF_ERROR(BindPresentation(stmt));
    for (const Block& block : plan_.blocks) {
      for (const BlockInput& input : block.inputs) {
        if (input.kind == BlockInput::Kind::kBaseTable && input.streamed) {
          if (!plan_.streamed_table.empty() &&
              plan_.streamed_table != input.table_name) {
            return Status::BindError(
                "queries may stream at most one relation (got " +
                plan_.streamed_table + " and " + input.table_name + ")");
          }
          plan_.streamed_table = input.table_name;
        }
      }
    }
    IOLAP_RETURN_IF_ERROR(ValidatePlan(plan_));
    return std::move(plan_);
  }

 private:
  /// Column-resolution scope: a block under construction plus the
  /// enclosing query's scope for correlated subqueries.
  struct Scope {
    Block* block = nullptr;
    const Scope* outer = nullptr;
  };

  // Resolves "[qualifier.]name" against a block's SPJ schema.
  Result<int> ResolveColumn(const Block& block, const std::string& qualifier,
                            const std::string& name) const {
    const std::string wanted =
        qualifier.empty() ? name : qualifier + "." + name;
    return block.spj_schema.FindColumn(wanted);
  }

  ExprPtr ColumnExpr(const Block& block, int index) const {
    return Col(index, block.spj_schema.column(index).name,
               block.spj_schema.column(index).type);
  }

  // ----------------------------------------------------------- FROM

  // Adds a base-table input (alias-qualified schema) to `block`.
  Status AddTableInput(Block* block, const AstTableRef& ref,
                       std::vector<int> prefix_keys,
                       std::vector<int> input_keys) {
    IOLAP_ASSIGN_OR_RETURN(const TableEntry* entry,
                           catalog_->Find(ref.table));
    BlockInput input;
    input.kind = BlockInput::Kind::kBaseTable;
    input.table_name = ref.table;
    input.streamed = entry->streamed;
    Schema qualified;
    for (const Column& col : entry->table->schema().columns()) {
      qualified.AddColumn(Column(ref.alias + "." + BaseName(col.name),
                                 col.type));
    }
    input.schema = std::move(qualified);
    input.prefix_key_cols = std::move(prefix_keys);
    input.input_key_cols = std::move(input_keys);
    block->spj_schema = block->spj_schema.Concat(input.schema);
    block->inputs.push_back(std::move(input));
    return Status::OK();
  }

  // Adds an upstream block's output as a join input.
  void AddBlockInput(Block* block, int source_block,
                     std::vector<int> prefix_keys,
                     std::vector<int> input_keys) {
    BlockInput input;
    input.kind = BlockInput::Kind::kBlockOutput;
    input.source_block = source_block;
    input.schema = blocks_[source_block].output_schema;
    input.prefix_key_cols = std::move(prefix_keys);
    input.input_key_cols = std::move(input_keys);
    block->spj_schema = block->spj_schema.Concat(input.schema);
    block->inputs.push_back(std::move(input));
  }

  // Builds `block`'s inputs from a FROM list, consuming equality conjuncts
  // that link a new table to the already-joined prefix. Consumed conjunct
  // indexes are recorded in `used`.
  Status BuildFrom(Block* block, const std::vector<AstTableRef>& from,
                   const std::vector<AstExprPtr>& conjuncts,
                   std::vector<bool>* used) {
    if (from.empty()) return Status::BindError("FROM clause is empty");
    // Alias uniqueness.
    std::set<std::string> aliases;
    for (const AstTableRef& ref : from) {
      if (!aliases.insert(ref.alias).second) {
        return Status::BindError("duplicate table alias: " + ref.alias);
      }
    }
    IOLAP_RETURN_IF_ERROR(AddTableInput(block, from[0], {}, {}));
    for (size_t k = 1; k < from.size(); ++k) {
      // Provisionally materialize the new table's qualified schema to test
      // conjunct sides.
      IOLAP_ASSIGN_OR_RETURN(const TableEntry* entry,
                             catalog_->Find(from[k].table));
      Schema added;
      for (const Column& col : entry->table->schema().columns()) {
        added.AddColumn(
            Column(from[k].alias + "." + BaseName(col.name), col.type));
      }
      std::vector<int> prefix_keys;
      std::vector<int> input_keys;
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if ((*used)[c]) continue;
        const AstExpr& conj = *conjuncts[c];
        if (conj.kind != AstExpr::Kind::kBinary || conj.name != "=") continue;
        const AstExpr& lhs = *conj.args[0];
        const AstExpr& rhs = *conj.args[1];
        if (lhs.kind != AstExpr::Kind::kColumn ||
            rhs.kind != AstExpr::Kind::kColumn) {
          continue;
        }
        auto side = [&](const AstExpr& col)
            -> std::pair<int, int> {  // {in_prefix_idx, in_added_idx}
          const std::string wanted =
              col.qualifier.empty() ? col.name
                                    : col.qualifier + "." + col.name;
          auto prefix = block->spj_schema.FindColumn(wanted);
          auto added_col = added.FindColumn(wanted);
          return {prefix.ok() ? *prefix : -1,
                  added_col.ok() ? *added_col : -1};
        };
        const auto [l_prefix, l_added] = side(lhs);
        const auto [r_prefix, r_added] = side(rhs);
        if (l_prefix >= 0 && r_added >= 0 && r_prefix < 0) {
          prefix_keys.push_back(l_prefix);
          input_keys.push_back(r_added);
          (*used)[c] = true;
        } else if (r_prefix >= 0 && l_added >= 0 && l_prefix < 0) {
          prefix_keys.push_back(r_prefix);
          input_keys.push_back(l_added);
          (*used)[c] = true;
        }
      }
      IOLAP_RETURN_IF_ERROR(AddTableInput(block, from[k],
                                          std::move(prefix_keys),
                                          std::move(input_keys)));
    }
    return Status::OK();
  }

  // ----------------------------------------------------- expressions

  struct BindOptions {
    /// Aggregate calls allowed? (only in select items / having args)
    bool allow_aggregates = false;
    /// Collect-only pass: subqueries are left for the later rebind pass
    /// (which resolves aggregates through `precomputed`), so they are not
    /// bound twice.
    bool skip_subqueries = false;
    /// Rewrites: AST rendering of an aggregate call / group-by expression
    /// -> column index in the current block's SPJ schema (used when binding
    /// items/having over an aggregate block's output).
    const std::map<std::string, int>* precomputed = nullptr;
    /// Collected aggregate specs when aggregates are bound in place (the
    /// aggregate block itself).
    std::vector<AggSpec>* agg_sink = nullptr;
    std::map<std::string, int>* agg_index = nullptr;  // AST string -> spec
    /// Scope the aggregate args are bound against (the aggregate block).
    const Scope* agg_scope = nullptr;
    /// When aggregate calls become lookups instead of accumulating specs
    /// (scalar subqueries): target block + key expressions.
    int lookup_block = -1;
    const std::vector<ExprPtr>* lookup_keys = nullptr;
  };

  Result<ExprPtr> BindExpr(const AstExprPtr& ast, const Scope& scope,
                           const BindOptions& options) {
    switch (ast->kind) {
      case AstExpr::Kind::kLiteral:
        return Lit(ast->literal);
      case AstExpr::Kind::kColumn: {
        if (options.precomputed != nullptr) {
          auto it = options.precomputed->find(ast->ToString());
          if (it != options.precomputed->end()) {
            return ColumnExpr(*scope.block, it->second);
          }
        }
        auto col = ResolveColumn(*scope.block, ast->qualifier, ast->name);
        if (!col.ok()) {
          return Status::BindError("cannot resolve column " +
                                   ast->ToString() + ": " +
                                   col.status().message());
        }
        return ColumnExpr(*scope.block, *col);
      }
      case AstExpr::Kind::kUnary: {
        IOLAP_ASSIGN_OR_RETURN(ExprPtr operand,
                               BindExpr(ast->args[0], scope, options));
        return ast->name == "not" ? Not(std::move(operand))
                                  : Neg(std::move(operand));
      }
      case AstExpr::Kind::kBinary: {
        IOLAP_ASSIGN_OR_RETURN(ExprPtr left,
                               BindExpr(ast->args[0], scope, options));
        IOLAP_ASSIGN_OR_RETURN(ExprPtr right,
                               BindExpr(ast->args[1], scope, options));
        return MakeBinary(BinaryOpFromName(ast->name), std::move(left),
                          std::move(right));
      }
      case AstExpr::Kind::kCall: {
        // The one place a function name resolves: the call is checked
        // against the function's signature and keeps the function.
        auto aggregate = functions_->FindAggregate(ast->name);
        if (aggregate.ok()) {
          return BindAggregateCall(ast, **aggregate, scope, options);
        }
        IOLAP_ASSIGN_OR_RETURN(const ScalarFunction* fn,
                               functions_->FindScalar(ast->name));
        const Signature& sig = fn->signature;
        if (!sig.AcceptsArity(ast->args.size())) {
          return Status::BindError("function " + ast->name + " cannot take " +
                                   std::to_string(ast->args.size()) +
                                   " arguments");
        }
        std::vector<ExprPtr> args;
        std::vector<ValueType> arg_types;
        for (const AstExprPtr& arg : ast->args) {
          IOLAP_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(arg, scope, options));
          const ValueType type = bound->output_type();
          if (!sig.Accepts(args.size(), type)) {
            return Status::BindError(
                "function " + ast->name + " cannot take a " +
                ValueTypeToString(type) + " as argument " +
                std::to_string(args.size() + 1));
          }
          arg_types.push_back(type);
          args.push_back(std::move(bound));
        }
        return std::static_pointer_cast<const Expr>(std::make_shared<CallExpr>(
            fn, std::move(args), sig.ResultType(arg_types)));
      }
      case AstExpr::Kind::kSubquery:
        if (options.skip_subqueries) return Lit(Value::Null());
        return BindScalarSubquery(*ast->subquery, scope);
      case AstExpr::Kind::kIn:
        return Status::BindError(
            "IN subqueries are only supported as top-level WHERE conjuncts");
      case AstExpr::Kind::kStar:
        return Status::BindError("'*' is only valid inside count(*)");
    }
    return Status::BindError("unsupported expression");
  }

  Result<ExprPtr> BindAggregateCall(const AstExprPtr& ast,
                                    const AggregateFunction& fn,
                                    const Scope& scope,
                                    const BindOptions& options) {
    if (options.precomputed != nullptr) {
      auto it = options.precomputed->find(ast->ToString());
      if (it != options.precomputed->end()) {
        return ColumnExpr(*scope.block, it->second);
      }
    }
    if (!options.allow_aggregates) {
      return Status::BindError("aggregate " + ast->name +
                               " is not allowed in this context");
    }
    if (ast->args.size() != 1) {
      return Status::BindError("aggregate " + ast->name +
                               " takes exactly one argument");
    }
    // Bind the argument in the aggregate block's scope.
    const Scope& arg_scope =
        options.agg_scope != nullptr ? *options.agg_scope : scope;
    ExprPtr arg;
    if (ast->args[0]->kind == AstExpr::Kind::kStar) {
      // count(*) counts rows: the built-in COUNT over a never-NULL literal.
      if (!IsBuiltinCount(fn)) {
        return Status::BindError("'*' is only valid inside count(*)");
      }
      arg = Lit(int64_t{1});
    } else {
      BindOptions arg_options;  // plain column/scalar context
      IOLAP_ASSIGN_OR_RETURN(arg,
                             BindExpr(ast->args[0], arg_scope, arg_options));
    }
    const ValueType arg_type = arg->output_type();
    if (!fn.signature.Accepts(0, arg_type)) {
      return Status::BindError("aggregate " + ast->name + " cannot take a " +
                               ValueTypeToString(arg_type) + " argument");
    }
    const ValueType agg_type = fn.signature.ResultType({arg_type});

    if (options.lookup_block >= 0) {
      // Scalar-subquery context: the aggregate becomes a lineage lookup.
      const Block& target = blocks_[options.lookup_block];
      // Find (or add) the spec in the target block.
      const std::string rendered = ast->ToString();
      int spec_index = -1;
      auto it = options.agg_index->find(rendered);
      if (it != options.agg_index->end()) {
        spec_index = it->second;
      } else {
        spec_index = static_cast<int>(options.agg_sink->size());
        options.agg_sink->push_back(
            AggSpec{&fn, arg, "agg" + std::to_string(spec_index)});
        (*options.agg_index)[rendered] = spec_index;
      }
      return std::static_pointer_cast<const Expr>(
          std::make_shared<AggLookupExpr>(
              options.lookup_block,
              static_cast<int>(target.group_by.size()) + spec_index,
              *options.lookup_keys, agg_type, rendered));
    }

    // Aggregate-block context: accumulate a spec; the call site receives a
    // reference that the caller resolves (only used by item/having
    // rewriting which goes through `precomputed`, so reaching here means
    // the caller wants the spec only).
    const std::string rendered = ast->ToString();
    auto it = options.agg_index->find(rendered);
    if (it == options.agg_index->end()) {
      const int spec_index = static_cast<int>(options.agg_sink->size());
      options.agg_sink->push_back(AggSpec{&fn, arg, rendered});
      (*options.agg_index)[rendered] = spec_index;
    }
    // Placeholder; rewritten by the caller via `precomputed`.
    return Lit(Value::Null());
  }

  // -------------------------------------------------- scalar subquery

  Result<ExprPtr> BindScalarSubquery(const SelectStmt& stmt,
                                     const Scope& outer) {
    if (!stmt.group_by.empty() || stmt.having != nullptr) {
      return Status::BindError(
          "scalar subqueries must not have GROUP BY/HAVING");
    }
    if (!stmt.order_by.empty() || stmt.limit >= 0) {
      return Status::BindError(
          "ORDER BY / LIMIT are only supported at the top level");
    }
    if (stmt.items.size() != 1) {
      return Status::BindError("scalar subqueries must select one value");
    }
    Block sub;
    sub.id = static_cast<int>(blocks_.size());
    sub.debug_name = "subquery#" + std::to_string(sub.id);

    std::vector<AstExprPtr> conjuncts;
    FlattenConjuncts(stmt.where, &conjuncts);
    std::vector<bool> used(conjuncts.size(), false);
    IOLAP_RETURN_IF_ERROR(BuildFrom(&sub, stmt.from, conjuncts, &used));
    Scope sub_scope{&sub, &outer};

    // Partition the remaining conjuncts into local filters and correlation
    // equalities (inner column = outer expression).
    std::vector<ExprPtr> local_filters;
    std::vector<ExprPtr> outer_keys;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (used[c]) continue;
      const AstExprPtr& conj = conjuncts[c];
      bool correlated = false;
      if (conj->kind == AstExpr::Kind::kBinary && conj->name == "=") {
        for (int side = 0; side < 2 && !correlated; ++side) {
          const AstExprPtr& inner_ast = conj->args[side];
          const AstExprPtr& outer_ast = conj->args[1 - side];
          if (inner_ast->kind != AstExpr::Kind::kColumn) continue;
          auto inner_col =
              ResolveColumn(sub, inner_ast->qualifier, inner_ast->name);
          if (!inner_col.ok()) continue;
          // The other side must NOT resolve locally but must resolve in
          // the outer scope.
          bool other_local = false;
          if (outer_ast->kind == AstExpr::Kind::kColumn) {
            other_local = ResolveColumn(sub, outer_ast->qualifier,
                                        outer_ast->name)
                              .ok();
          }
          if (other_local) continue;
          BindOptions outer_options;
          auto outer_bound = BindExpr(outer_ast, outer, outer_options);
          if (!outer_bound.ok()) continue;
          // Decorrelate: group the subquery by the inner column; the outer
          // expression becomes the lookup key (§Q17 shape).
          sub.group_by.push_back(ColumnExpr(sub, *inner_col));
          sub.group_by_names.push_back(
              sub.spj_schema.column(*inner_col).name);
          outer_keys.push_back(std::move(*outer_bound));
          correlated = true;
        }
      }
      if (correlated) continue;
      BindOptions local_options;
      IOLAP_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindExpr(conj, sub_scope, local_options));
      local_filters.push_back(std::move(bound));
    }
    sub.filter = Conjunction(std::move(local_filters));

    // Register the block (group-by already set) before binding the item so
    // lookups can read its key arity; nested subqueries inside the item
    // then take later block ids. blocks_ is a deque, so the pointer taken
    // for the argument scope stays valid.
    const int sub_id = sub.id;
    blocks_.push_back(std::move(sub));
    Scope arg_scope{&blocks_[sub_id], &outer};

    // Bind the single item: an expression over aggregate calls, rewritten
    // into lookups keyed by the correlation columns. Aggregate specs are
    // collected locally and installed afterwards.
    std::vector<AggSpec> aggs;
    std::map<std::string, int> agg_index;
    BindOptions item_options;
    item_options.allow_aggregates = true;
    item_options.agg_sink = &aggs;
    item_options.agg_index = &agg_index;
    item_options.agg_scope = &arg_scope;
    item_options.lookup_block = sub_id;
    item_options.lookup_keys = &outer_keys;

    IOLAP_ASSIGN_OR_RETURN(
        ExprPtr item, BindExpr(stmt.items[0].expr, outer, item_options));
    if (aggs.empty()) {
      return Status::BindError(
          "scalar subqueries must compute at least one aggregate");
    }
    blocks_[sub_id].aggs = std::move(aggs);
    blocks_[sub_id].output_schema = OutputSchema(blocks_[sub_id]);
    return item;
  }

  // --------------------------------------------------- IN subquery

  // Binds `lhs IN (SELECT k FROM ... [GROUP BY k] [HAVING p])` against the
  // consumer block: joins the raw grouped block on k and returns the bound
  // HAVING predicate (or null) to fold into the consumer's filter.
  Result<ExprPtr> BindInSubquery(const AstExprPtr& in_ast, Block* consumer) {
    const SelectStmt& stmt = *in_ast->subquery;
    if (stmt.items.size() != 1 ||
        stmt.items[0].expr->kind != AstExpr::Kind::kColumn) {
      return Status::BindError(
          "IN subqueries must select a single bare column");
    }
    if (!stmt.order_by.empty() || stmt.limit >= 0) {
      return Status::BindError(
          "ORDER BY / LIMIT are only supported at the top level");
    }
    // Resolve the consumer-side key column first.
    const AstExprPtr& lhs = in_ast->args[0];
    if (lhs->kind != AstExpr::Kind::kColumn) {
      return Status::BindError("IN requires a bare column on the left");
    }
    auto lhs_col = ResolveColumn(*consumer, lhs->qualifier, lhs->name);
    if (!lhs_col.ok()) return lhs_col.status();

    Block sub;
    sub.id = static_cast<int>(blocks_.size());
    sub.debug_name = "in_subquery#" + std::to_string(sub.id);
    std::vector<AstExprPtr> conjuncts;
    FlattenConjuncts(stmt.where, &conjuncts);
    std::vector<bool> used(conjuncts.size(), false);
    IOLAP_RETURN_IF_ERROR(BuildFrom(&sub, stmt.from, conjuncts, &used));
    Scope sub_scope{&sub, nullptr};

    std::vector<ExprPtr> local_filters;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (used[c]) continue;
      BindOptions options;
      IOLAP_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindExpr(conjuncts[c], sub_scope, options));
      local_filters.push_back(std::move(bound));
    }
    sub.filter = Conjunction(std::move(local_filters));

    // Group by the selected key column (explicit GROUP BY, if present,
    // must name the same column).
    const AstExpr& key_ast = *stmt.items[0].expr;
    auto key_col = ResolveColumn(sub, key_ast.qualifier, key_ast.name);
    if (!key_col.ok()) return key_col.status();
    if (stmt.group_by.size() > 1 ||
        (stmt.group_by.size() == 1 &&
         stmt.group_by[0]->ToString() != key_ast.ToString())) {
      return Status::BindError(
          "IN subqueries must group by the selected column");
    }
    sub.group_by.push_back(ColumnExpr(sub, *key_col));
    sub.group_by_names.push_back(sub.spj_schema.column(*key_col).name);

    // Collect the HAVING aggregates into the subquery block. The block is
    // registered first (blocks_ is a deque: stable pointers) so nested
    // subqueries inside HAVING take later ids.
    const int sub_id = sub.id;
    blocks_.push_back(std::move(sub));
    std::map<std::string, int> agg_index;
    ExprPtr bound_having;
    if (stmt.having != nullptr) {
      // First pass: collect aggregate specs (bound in the sub scope);
      // subqueries are skipped here and bound in the consumer pass.
      Scope sub_scope2{&blocks_[sub_id], nullptr};
      std::vector<AggSpec> aggs;
      BindOptions collect;
      collect.allow_aggregates = true;
      collect.skip_subqueries = true;
      collect.agg_sink = &aggs;
      collect.agg_index = &agg_index;
      collect.agg_scope = &sub_scope2;
      IOLAP_ASSIGN_OR_RETURN(ExprPtr ignored,
                             BindExpr(stmt.having, sub_scope2, collect));
      (void)ignored;
      blocks_[sub_id].aggs = std::move(aggs);
    }
    blocks_[sub_id].output_schema = OutputSchema(blocks_[sub_id]);

    // Join the consumer with the grouped block on the key.
    AddBlockInput(consumer, sub_id, {*lhs_col}, {0});

    // Second pass: rebind HAVING over the consumer's (extended) schema,
    // mapping aggregate calls / the key column to the joined-in columns.
    if (stmt.having != nullptr) {
      const size_t offset =
          consumer->spj_schema.num_columns() -
          blocks_[sub_id].output_schema.num_columns();
      std::map<std::string, int> precomputed;
      precomputed[key_ast.ToString()] = static_cast<int>(offset);
      for (const auto& [rendered, spec] : agg_index) {
        precomputed[rendered] = static_cast<int>(offset + 1 + spec);
      }
      Scope consumer_scope{consumer, nullptr};
      BindOptions rebind;
      rebind.allow_aggregates = true;  // they resolve via `precomputed`
      rebind.precomputed = &precomputed;
      // Aggregates not in `precomputed` would accumulate; forbid by
      // pointing the sink at nothing — all must have been collected.
      std::vector<AggSpec> overflow;
      std::map<std::string, int> overflow_index = agg_index;
      rebind.agg_sink = &overflow;
      rebind.agg_index = &overflow_index;
      rebind.agg_scope = &consumer_scope;
      IOLAP_ASSIGN_OR_RETURN(bound_having,
                             BindExpr(stmt.having, consumer_scope, rebind));
      if (!overflow.empty()) {
        return Status::BindError(
            "aggregates in IN ... HAVING must also appear in the collected "
            "set; this is a binder invariant violation");
      }
    }
    return bound_having;  // may be null
  }

  // ------------------------------------------------------- SELECT

  static bool ContainsAggregate(const AstExprPtr& ast,
                                const Impl& binder) {
    if (ast == nullptr) return false;
    if (ast->kind == AstExpr::Kind::kCall &&
        binder.functions_->FindAggregate(ast->name).ok()) {
      return true;
    }
    for (const AstExprPtr& arg : ast->args) {
      if (ContainsAggregate(arg, binder)) return true;
    }
    // Subqueries compute their own aggregates; they do not make the outer
    // expression aggregated.
    return false;
  }

  Status BindSelect(const SelectStmt& stmt, const Scope* outer) {
    // The block's id is assigned when it is finally pushed: subqueries
    // bound along the way register their own (earlier) blocks.
    Block main;
    main.debug_name = "main";

    std::vector<AstExprPtr> conjuncts;
    FlattenConjuncts(stmt.where, &conjuncts);
    std::vector<bool> used(conjuncts.size(), false);
    IOLAP_RETURN_IF_ERROR(BuildFrom(&main, stmt.from, conjuncts, &used));

    // The block must be registered before subquery conjuncts are bound,
    // because subqueries create blocks that precede the main block in
    // topological order... but AggLookup validation requires referenced
    // blocks to come *before* the referencing one, so the main block is
    // appended last. Work on a local Block and bind subqueries first.
    Scope scope{&main, outer};

    // IN conjuncts mutate the block's inputs; bind them first.
    std::vector<ExprPtr> filters;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (used[c]) continue;
      if (conjuncts[c]->kind == AstExpr::Kind::kIn) {
        used[c] = true;
        IOLAP_ASSIGN_OR_RETURN(ExprPtr having,
                               BindInSubquery(conjuncts[c], &main));
        if (having != nullptr) filters.push_back(std::move(having));
      }
    }
    // Remaining conjuncts (may contain scalar subqueries).
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (used[c]) continue;
      BindOptions options;
      IOLAP_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindExpr(conjuncts[c], scope, options));
      filters.push_back(std::move(bound));
    }
    main.filter = Conjunction(std::move(filters));

    // Grouping & aggregates.
    const bool has_any_aggregate = [&] {
      if (!stmt.group_by.empty() || stmt.having != nullptr) return true;
      for (const AstSelectItem& item : stmt.items) {
        if (ContainsAggregate(item.expr, *this)) return true;
      }
      return false;
    }();

    if (!has_any_aggregate) {
      // Pure SPJ select.
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        BindOptions options;
        IOLAP_ASSIGN_OR_RETURN(ExprPtr bound,
                               BindExpr(stmt.items[i].expr, scope, options));
        main.projection_names.push_back(stmt.items[i].alias.empty()
                                            ? stmt.items[i].expr->ToString()
                                            : stmt.items[i].alias);
        main.projections.push_back(std::move(bound));
      }
      main.output_schema = OutputSchema(main);
      PushBlock(std::move(main));
      return Status::OK();
    }

    // Bind group-by keys.
    std::map<std::string, int> group_index;  // AST string -> key position
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      BindOptions options;
      IOLAP_ASSIGN_OR_RETURN(ExprPtr key,
                             BindExpr(stmt.group_by[g], scope, options));
      group_index[stmt.group_by[g]->ToString()] = static_cast<int>(g);
      main.group_by_names.push_back(stmt.group_by[g]->ToString());
      main.group_by.push_back(std::move(key));
    }

    // Collect aggregate specs from items and having. Subqueries are left
    // to the rebind pass (they are not needed to enumerate aggregates).
    std::map<std::string, int> agg_index;
    {
      BindOptions collect;
      collect.allow_aggregates = true;
      collect.skip_subqueries = true;
      collect.agg_sink = &main.aggs;
      collect.agg_index = &agg_index;
      collect.agg_scope = &scope;
      for (const AstSelectItem& item : stmt.items) {
        IOLAP_ASSIGN_OR_RETURN(ExprPtr ignored,
                               BindExpr(item.expr, scope, collect));
        (void)ignored;
      }
      if (stmt.having != nullptr) {
        IOLAP_ASSIGN_OR_RETURN(ExprPtr ignored,
                               BindExpr(stmt.having, scope, collect));
        (void)ignored;
      }
    }
    if (main.aggs.empty()) {
      return Status::BindError(
          "GROUP BY/HAVING queries must compute at least one aggregate");
    }

    // Single block when items are exactly [keys..., bare agg calls...] in
    // canonical order and there is no HAVING.
    const bool canonical = [&] {
      if (stmt.having != nullptr) return false;
      if (stmt.items.size() != stmt.group_by.size() + main.aggs.size()) {
        return false;
      }
      for (size_t i = 0; i < stmt.group_by.size(); ++i) {
        if (stmt.items[i].expr->ToString() != stmt.group_by[i]->ToString()) {
          return false;
        }
      }
      for (size_t a = 0; a < main.aggs.size(); ++a) {
        const auto it =
            agg_index.find(stmt.items[stmt.group_by.size() + a].expr->ToString());
        if (it == agg_index.end() || it->second != static_cast<int>(a)) {
          return false;
        }
      }
      return true;
    }();

    if (canonical) {
      // Apply the user's aliases to the output columns.
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].alias.empty()) continue;
        if (i < main.group_by.size()) {
          main.group_by_names[i] = stmt.items[i].alias;
        } else {
          main.aggs[i - main.group_by.size()].output_name =
              stmt.items[i].alias;
        }
      }
      main.output_schema = OutputSchema(main);
      PushBlock(std::move(main));
      return Status::OK();
    }

    // Two-layer form: aggregate block + post block (projections / HAVING).
    main.output_schema = OutputSchema(main);
    main.debug_name += "_agg";
    const int agg_block_id = PushBlock(std::move(main));

    Block post;
    post.debug_name = "post";
    AddBlockInput(&post, agg_block_id, {}, {});
    Scope post_scope{&post, outer};

    std::map<std::string, int> precomputed;
    {
      const Block& agg_block = blocks_[agg_block_id];
      for (const auto& [rendered, key_pos] : group_index) {
        precomputed[rendered] = key_pos;
      }
      for (const auto& [rendered, spec] : agg_index) {
        precomputed[rendered] =
            static_cast<int>(agg_block.group_by.size()) + spec;
      }
    }
    BindOptions rebind;
    rebind.allow_aggregates = true;  // resolve via `precomputed`
    rebind.precomputed = &precomputed;
    std::vector<AggSpec> overflow;
    std::map<std::string, int> overflow_index = agg_index;
    rebind.agg_sink = &overflow;
    rebind.agg_index = &overflow_index;
    rebind.agg_scope = &post_scope;

    if (stmt.having != nullptr) {
      IOLAP_ASSIGN_OR_RETURN(post.filter,
                             BindExpr(stmt.having, post_scope, rebind));
    }
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      IOLAP_ASSIGN_OR_RETURN(ExprPtr bound,
                             BindExpr(stmt.items[i].expr, post_scope, rebind));
      post.projection_names.push_back(stmt.items[i].alias.empty()
                                          ? stmt.items[i].expr->ToString()
                                          : stmt.items[i].alias);
      post.projections.push_back(std::move(bound));
    }
    if (!overflow.empty()) {
      return Status::BindError("inconsistent aggregate usage between the "
                               "collect and rebind passes");
    }
    post.output_schema = OutputSchema(post);
    PushBlock(std::move(post));
    return Status::OK();
  }

  /// Resolves top-level ORDER BY / LIMIT against the top block's output
  /// schema (bare column names / aliases or 1-based ordinals).
  Status BindPresentation(const SelectStmt& stmt) {
    plan_.presentation.limit = stmt.limit;
    const Schema& out = plan_.blocks.back().output_schema;
    for (const AstOrderItem& item : stmt.order_by) {
      Presentation::Key key;
      key.descending = item.descending;
      if (item.expr->kind == AstExpr::Kind::kLiteral &&
          item.expr->literal.type() == ValueType::kInt64) {
        const int64_t ordinal = item.expr->literal.int64();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(out.num_columns())) {
          return Status::BindError("ORDER BY ordinal out of range");
        }
        key.column = static_cast<int>(ordinal - 1);
      } else if (item.expr->kind == AstExpr::Kind::kColumn) {
        const std::string wanted =
            item.expr->qualifier.empty()
                ? item.expr->name
                : item.expr->qualifier + "." + item.expr->name;
        auto col = out.FindColumn(wanted);
        if (!col.ok()) {
          return Status::BindError(
              "ORDER BY must name an output column or ordinal: " +
              item.expr->ToString());
        }
        key.column = *col;
      } else {
        return Status::BindError(
            "ORDER BY supports output columns and ordinals only");
      }
      plan_.presentation.order_by.push_back(key);
    }
    return Status::OK();
  }

  /// Assigns the next block id and registers the block.
  int PushBlock(Block block) {
    block.id = static_cast<int>(blocks_.size());
    blocks_.push_back(std::move(block));
    return blocks_.back().id;
  }

  const Catalog* catalog_;
  std::shared_ptr<const FunctionRegistry> functions_;
  QueryPlan plan_;
  /// Blocks under construction. A deque keeps Block* stable across
  /// push_back, which nested-subquery binding relies on.
  std::deque<Block> blocks_;
};

// ---------------------------------------------------------------- facade

Binder::Binder(const Catalog* catalog,
               std::shared_ptr<const FunctionRegistry> functions)
    : catalog_(catalog), functions_(std::move(functions)) {}

Result<QueryPlan> Binder::Bind(const SelectStmt& stmt) {
  Impl impl(catalog_, functions_);
  return impl.Bind(stmt);
}

Result<QueryPlan> BindSql(const std::string& sql, const Catalog& catalog,
                          std::shared_ptr<const FunctionRegistry> functions) {
  IOLAP_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelect(sql));
  Binder binder(&catalog, std::move(functions));
  return binder.Bind(*stmt);
}

}  // namespace iolap
