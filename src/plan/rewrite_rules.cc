#include "plan/rewrite_rules.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace iolap {

namespace {

// Which side(s) of a two-input block an expression's columns touch.
// Bit 1 = left input, bit 2 = right input.
int SideMask(const ExprPtr& expr, size_t left_width) {
  switch (expr->kind()) {
    case Expr::Kind::kLiteral:
      return 0;
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(*expr);
      return static_cast<size_t>(ref.index()) < left_width ? 1 : 2;
    }
    case Expr::Kind::kUnary:
      return SideMask(static_cast<const UnaryExpr&>(*expr).operand(),
                      left_width);
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      return SideMask(bin.left(), left_width) |
             SideMask(bin.right(), left_width);
    }
    case Expr::Kind::kCall: {
      int mask = 0;
      for (const auto& arg : static_cast<const CallExpr&>(*expr).args()) {
        mask |= SideMask(arg, left_width);
      }
      return mask;
    }
    case Expr::Kind::kAggLookup:
      return 3;  // treated as non-decomposable
  }
  return 3;
}

bool HasAggLookups(const ExprPtr& expr) {
  if (expr == nullptr) return false;
  std::vector<const AggLookupExpr*> lookups;
  expr->CollectAggLookups(&lookups);
  return !lookups.empty();
}

void FlattenAnd(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op() == Expr::BinaryOp::kAnd) {
      FlattenAnd(bin.left(), out);
      FlattenAnd(bin.right(), out);
      return;
    }
  }
  out->push_back(expr);
}

// One original aggregate split into per-side factors (factor == nullptr
// means "the constant 1", i.e. that side contributes its per-key COUNT).
struct DecomposedAgg {
  ExprPtr left_factor;   // over the left input's column space
  ExprPtr right_factor;  // over the right input's column space
};

// Remaps an expression whose columns live in [left_width, total) down to
// the right input's own column space.
ExprPtr ToRightSpace(const ExprPtr& expr, size_t left_width, size_t total) {
  std::vector<int> mapping(total, -1);
  for (size_t c = left_width; c < total; ++c) {
    mapping[c] = static_cast<int>(c - left_width);
  }
  // Left columns keep a poisoned mapping: SideMask already guaranteed the
  // expression never touches them.
  for (size_t c = 0; c < left_width; ++c) mapping[c] = -1;
  return RemapColumns(expr, mapping);
}

// The partial aggregates one side must publish: expressions (in that
// side's column space) rendered for dedup, in insertion order.
class SideOutputs {
 public:
  // Returns the output column index (within the side block's aggregate
  // columns) of SUM(expr).
  int SumOf(const ExprPtr& expr) {
    const std::string rendered = expr->ToString();
    auto it = index_.find(rendered);
    if (it != index_.end()) return it->second;
    const int pos = static_cast<int>(exprs_.size());
    index_[rendered] = pos;
    exprs_.push_back(expr);
    return pos;
  }

  int CountColumn() { return SumOf(Lit(int64_t{1})); }

  const std::vector<ExprPtr>& exprs() const { return exprs_; }

 private:
  std::map<std::string, int> index_;
  std::vector<ExprPtr> exprs_;
};

// Attempts to decompose one block; returns the replacement blocks (left
// partial, right partial, recombining top) or nothing if the rule does not
// apply. `next_id` is the id of the first emitted block; `sum` is the
// built-in SUM the partial and recombining aggregates use (null: the rule
// does not apply).
struct Decomposition {
  Block left;
  Block right;
  Block top;
};

std::optional<Decomposition> TryDecompose(const Block& block, int next_id,
                                          const AggregateFunction* sum) {
  if (sum == nullptr || !block.has_aggregate() || block.inputs.size() != 2) {
    return std::nullopt;
  }
  const BlockInput& in_left = block.inputs[0];
  const BlockInput& in_right = block.inputs[1];
  if (in_left.kind != BlockInput::Kind::kBaseTable ||
      in_right.kind != BlockInput::Kind::kBaseTable) {
    return std::nullopt;
  }
  if (in_right.prefix_key_cols.empty()) return std::nullopt;  // cross join
  const size_t left_width = in_left.schema.num_columns();
  const size_t total = block.spj_schema.num_columns();

  // Filter: deterministic, single-sided conjuncts only.
  std::vector<ExprPtr> conjuncts;
  FlattenAnd(block.filter, &conjuncts);
  std::vector<ExprPtr> left_filters;
  std::vector<ExprPtr> right_filters;
  for (const ExprPtr& conj : conjuncts) {
    if (HasAggLookups(conj)) return std::nullopt;
    const int mask = SideMask(conj, left_width);
    if (mask == 3) return std::nullopt;
    if (mask == 2) {
      right_filters.push_back(ToRightSpace(conj, left_width, total));
    } else {
      left_filters.push_back(conj);
    }
  }

  // Group keys: bare columns, one side each.
  struct KeyRef {
    bool left;
    int col;  // in the owning side's column space
  };
  std::vector<KeyRef> group_keys;
  for (const ExprPtr& key : block.group_by) {
    if (key->kind() != Expr::Kind::kColumnRef) return std::nullopt;
    const int index = static_cast<const ColumnRefExpr&>(*key).index();
    if (static_cast<size_t>(index) < left_width) {
      group_keys.push_back({true, index});
    } else {
      group_keys.push_back({false, index - static_cast<int>(left_width)});
    }
  }

  // Aggregates: the built-in SUM / COUNT with per-side factors.
  std::vector<DecomposedAgg> decomposed;
  for (const AggSpec& agg : block.aggs) {
    if (HasAggLookups(agg.arg)) return std::nullopt;
    const bool is_count = IsBuiltinCount(*agg.fn);
    if (!is_count && !IsBuiltinSum(*agg.fn)) return std::nullopt;
    DecomposedAgg d;
    if (is_count) {
      // COUNT(expr): only count(*) (a never-null literal) decomposes
      // safely into C1·C2.
      if (agg.arg->kind() != Expr::Kind::kLiteral) return std::nullopt;
    } else {
      const int mask = SideMask(agg.arg, left_width);
      if (mask == 3) {
        // Must be a top-level product with single-sided factors.
        if (agg.arg->kind() != Expr::Kind::kBinary) return std::nullopt;
        const auto& bin = static_cast<const BinaryExpr&>(*agg.arg);
        if (bin.op() != Expr::BinaryOp::kMul) return std::nullopt;
        const int lm = SideMask(bin.left(), left_width);
        const int rm = SideMask(bin.right(), left_width);
        if (lm == 3 || rm == 3 || (lm & rm) != 0 || lm == 0 || rm == 0) {
          return std::nullopt;
        }
        const ExprPtr& lf = lm == 1 ? bin.left() : bin.right();
        const ExprPtr& rf = lm == 1 ? bin.right() : bin.left();
        d.left_factor = lf;
        d.right_factor = ToRightSpace(rf, left_width, total);
      } else if (mask == 2) {
        d.right_factor = ToRightSpace(agg.arg, left_width, total);
      } else {
        d.left_factor = agg.arg;  // mask 0 or 1
      }
    }
    decomposed.push_back(std::move(d));
  }

  // ---- build the per-side partial blocks --------------------------------
  auto side_name = [&](size_t col, bool left) {
    return left ? block.spj_schema.column(col).name
                : in_right.schema.column(col).name;
  };

  Decomposition result;
  SideOutputs left_outputs;
  SideOutputs right_outputs;

  auto build_side = [&](bool left, const BlockInput& input,
                        std::vector<ExprPtr> filters,
                        const std::vector<int>& join_keys, int id) {
    Block side;
    side.id = id;
    side.debug_name = block.debug_name + (left ? "_lpart" : "_rpart");
    BlockInput scan = input;
    scan.prefix_key_cols.clear();
    scan.input_key_cols.clear();
    side.spj_schema = scan.schema;
    side.inputs.push_back(std::move(scan));
    side.filter = Conjunction(std::move(filters));
    // Keys: the block's own group keys on this side, then the join keys.
    std::set<int> seen;
    auto add_key = [&](int col) {
      if (!seen.insert(col).second) return;
      side.group_by.push_back(Col(col, side_name(col, left),
                                  side.spj_schema.column(col).type));
      side.group_by_names.push_back(side.spj_schema.column(col).name);
    };
    for (const KeyRef& key : group_keys) {
      if (key.left == left) add_key(key.col);
    }
    for (int col : join_keys) add_key(col);
    return std::pair<Block, std::set<int>>(std::move(side), std::move(seen));
  };

  // Join key columns in each side's own space.
  std::vector<int> left_join_keys = in_right.prefix_key_cols;
  std::vector<int> right_join_keys = in_right.input_key_cols;

  auto [left_block, left_key_set] = build_side(
      true, in_left, std::move(left_filters), left_join_keys, next_id);
  auto [right_block, right_key_set] = build_side(
      false, in_right, std::move(right_filters), right_join_keys, next_id + 1);
  (void)left_key_set;
  (void)right_key_set;

  // Partial sums each side publishes (dedup'd across aggregates). Every
  // aggregate needs a factor from both sides; a missing factor becomes the
  // side's per-key COUNT (SUM of 1).
  struct TopAgg {
    int left_col;   // aggregate column index within left partials
    int right_col;  // within right partials
  };
  std::vector<TopAgg> top_aggs;
  for (const DecomposedAgg& d : decomposed) {
    TopAgg top;
    top.left_col = d.left_factor != nullptr
                       ? left_outputs.SumOf(d.left_factor)
                       : left_outputs.CountColumn();
    top.right_col = d.right_factor != nullptr
                        ? right_outputs.SumOf(d.right_factor)
                        : right_outputs.CountColumn();
    top_aggs.push_back(top);
  }

  auto finish_side = [sum](Block* side, const SideOutputs& outputs) {
    for (size_t i = 0; i < outputs.exprs().size(); ++i) {
      side->aggs.push_back(
          AggSpec{sum, outputs.exprs()[i], "s" + std::to_string(i)});
    }
    side->output_schema = OutputSchema(*side);
  };
  finish_side(&left_block, left_outputs);
  finish_side(&right_block, right_outputs);

  // Positions of columns within each side's output schema.
  auto key_position = [](const Block& side, int col_in_side) {
    for (size_t k = 0; k < side.group_by.size(); ++k) {
      if (static_cast<const ColumnRefExpr&>(*side.group_by[k]).index() ==
          col_in_side) {
        return static_cast<int>(k);
      }
    }
    return -1;
  };

  // ---- the recombining top block -----------------------------------------
  Block top;
  top.id = next_id + 2;
  top.debug_name = block.debug_name + "_recombine";
  BlockInput left_in;
  left_in.kind = BlockInput::Kind::kBlockOutput;
  left_in.source_block = left_block.id;
  left_in.schema = left_block.output_schema;
  top.spj_schema = left_in.schema;
  top.inputs.push_back(std::move(left_in));

  BlockInput right_in;
  right_in.kind = BlockInput::Kind::kBlockOutput;
  right_in.source_block = right_block.id;
  right_in.schema = right_block.output_schema;
  for (size_t k = 0; k < left_join_keys.size(); ++k) {
    right_in.prefix_key_cols.push_back(
        key_position(left_block, left_join_keys[k]));
    right_in.input_key_cols.push_back(
        key_position(right_block, right_join_keys[k]));
  }
  top.spj_schema = top.spj_schema.Concat(right_in.schema);
  top.inputs.push_back(std::move(right_in));

  const int right_offset = static_cast<int>(left_block.output_schema.num_columns());
  // Group keys in the original order, resolved into the joined layout.
  for (size_t g = 0; g < group_keys.size(); ++g) {
    const KeyRef& key = group_keys[g];
    const int pos = key.left
                        ? key_position(left_block, key.col)
                        : right_offset + key_position(right_block, key.col);
    top.group_by.push_back(Col(pos, top.spj_schema.column(pos).name,
                               top.spj_schema.column(pos).type));
    top.group_by_names.push_back(block.group_by_names[g]);
  }
  const int left_agg_base = static_cast<int>(left_block.group_by.size());
  const int right_agg_base =
      right_offset + static_cast<int>(right_block.group_by.size());
  for (size_t a = 0; a < block.aggs.size(); ++a) {
    const int lc = left_agg_base + top_aggs[a].left_col;
    const int rc = right_agg_base + top_aggs[a].right_col;
    ExprPtr product = Mul(Col(lc, top.spj_schema.column(lc).name,
                              top.spj_schema.column(lc).type),
                          Col(rc, top.spj_schema.column(rc).name,
                              top.spj_schema.column(rc).type));
    top.aggs.push_back(
        AggSpec{sum, std::move(product), block.aggs[a].output_name});
  }
  // The rewritten block's output schema must match the original exactly
  // (downstream consumers address it by column index).
  top.output_schema = block.output_schema;

  result.left = std::move(left_block);
  result.right = std::move(right_block);
  result.top = std::move(top);
  return result;
}

// Rewrites AggLookup block ids through `id_map`.
ExprPtr RemapLookupBlocks(const ExprPtr& expr,
                          const std::vector<int>& id_map) {
  if (expr == nullptr) return expr;
  switch (expr->kind()) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kColumnRef:
      return expr;
    case Expr::Kind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(*expr);
      return std::make_shared<UnaryExpr>(
          unary.op(), RemapLookupBlocks(unary.operand(), id_map),
          unary.output_type());
    }
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      return std::make_shared<BinaryExpr>(
          bin.op(), RemapLookupBlocks(bin.left(), id_map),
          RemapLookupBlocks(bin.right(), id_map), bin.output_type());
    }
    case Expr::Kind::kCall: {
      const auto& call = static_cast<const CallExpr&>(*expr);
      std::vector<ExprPtr> args;
      for (const auto& arg : call.args()) {
        args.push_back(RemapLookupBlocks(arg, id_map));
      }
      return std::make_shared<CallExpr>(&call.function(), std::move(args),
                                        call.output_type());
    }
    case Expr::Kind::kAggLookup: {
      const auto& lookup = static_cast<const AggLookupExpr&>(*expr);
      std::vector<ExprPtr> keys;
      for (const auto& key : lookup.key_exprs()) {
        keys.push_back(RemapLookupBlocks(key, id_map));
      }
      return std::make_shared<AggLookupExpr>(
          id_map[lookup.block_id()], lookup.agg_col(), std::move(keys),
          lookup.output_type(), lookup.ToString());
    }
  }
  return expr;
}

void RemapBlockReferences(Block* block, const std::vector<int>& id_map) {
  for (BlockInput& input : block->inputs) {
    if (input.kind == BlockInput::Kind::kBlockOutput) {
      input.source_block = id_map[input.source_block];
    }
  }
  block->filter = RemapLookupBlocks(block->filter, id_map);
  for (ExprPtr& g : block->group_by) g = RemapLookupBlocks(g, id_map);
  for (AggSpec& agg : block->aggs) {
    agg.arg = RemapLookupBlocks(agg.arg, id_map);
  }
  for (ExprPtr& p : block->projections) p = RemapLookupBlocks(p, id_map);
}

}  // namespace

Result<QueryPlan> ApplyRewriteRules(QueryPlan plan, RewriteStats* stats) {
  QueryPlan rewritten;
  rewritten.functions = plan.functions;
  rewritten.streamed_table = plan.streamed_table;
  // The rule re-aggregates with the registry's SUM, so it applies only
  // while that is the built-in one.
  auto registered_sum = plan.functions->FindAggregate("sum");
  const AggregateFunction* sum =
      registered_sum.ok() && IsBuiltinSum(**registered_sum) ? *registered_sum
                                                            : nullptr;

  std::vector<int> id_map(plan.blocks.size(), -1);
  for (size_t b = 0; b < plan.blocks.size(); ++b) {
    Block block = std::move(plan.blocks[b]);
    // Earlier blocks may have moved: fix references first.
    RemapBlockReferences(&block, id_map);
    const int next_id = static_cast<int>(rewritten.blocks.size());
    auto decomposition = TryDecompose(block, next_id, sum);
    if (decomposition.has_value()) {
      if (stats != nullptr) ++stats->decompositions;
      id_map[b] = decomposition->top.id;
      rewritten.blocks.push_back(std::move(decomposition->left));
      rewritten.blocks.push_back(std::move(decomposition->right));
      rewritten.blocks.push_back(std::move(decomposition->top));
    } else {
      block.id = next_id;
      id_map[b] = next_id;
      rewritten.blocks.push_back(std::move(block));
    }
  }
  IOLAP_RETURN_IF_ERROR(ValidatePlan(rewritten));
  return rewritten;
}

}  // namespace iolap
