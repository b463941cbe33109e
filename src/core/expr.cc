#include "core/expr.h"

#include <cassert>
#include <cmath>

#include "core/function_registry.h"

namespace iolap {

void AggLookupResolver::LookupTrials(int block_id, int col, const Row& key,
                                     int num_trials, Value* out) const {
  for (int t = 0; t < num_trials; ++t) {
    out[t] = LookupTrial(block_id, col, key, t);
  }
}

namespace {

// Numeric result type with SQL-ish promotion.
ValueType PromoteNumeric(ValueType a, ValueType b) {
  if (a == ValueType::kDouble || b == ValueType::kDouble) {
    return ValueType::kDouble;
  }
  return ValueType::kInt64;
}

bool IsLogical(Expr::BinaryOp op) {
  return op == Expr::BinaryOp::kAnd || op == Expr::BinaryOp::kOr;
}

Value EvalArith(Expr::BinaryOp op, const Value& l, const Value& r,
                ValueType out_type) {
  const NumericValue a = NumericValue::Of(l);
  const NumericValue b = NumericValue::Of(r);
  if (op == Expr::BinaryOp::kMod) return NumericMod(a, b).ToValue();
  return NumericArith(op, a, b, out_type == ValueType::kInt64).ToValue();
}

Value EvalComparison(Expr::BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  return Value::Bool(ComparisonHolds(op, l.Compare(r)));
}

// Interval of a truth value from a tri-state outcome.
Interval TruthInterval(IntervalTruth t) {
  switch (t) {
    case IntervalTruth::kAlwaysTrue:
      return Interval::Point(1.0);
    case IntervalTruth::kAlwaysFalse:
      return Interval::Point(0.0);
    default:
      return Interval(0.0, 1.0);
  }
}

}  // namespace

// ---------------------------------------------------------------- Literal

Value LiteralExpr::Eval(const Row&, const EvalContext&) const { return value_; }

Interval LiteralExpr::EvalInterval(const Row&, const EvalContext&) const {
  if (value_.is_numeric()) return Interval::Point(value_.AsDouble());
  return Interval::Unbounded();
}

// -------------------------------------------------------------- ColumnRef

Value ColumnRefExpr::Eval(const Row& row, const EvalContext& ctx) const {
  // An uncertain column is re-derived through its lineage, in the main
  // evaluation and in every trial: the stored value is the one of the batch
  // that produced the row, and it is not a trial replica.
  if (ctx.column_lineage != nullptr &&
      static_cast<size_t>(index_) < ctx.column_lineage->size()) {
    const ExprPtr& lineage = (*ctx.column_lineage)[index_];
    if (lineage != nullptr) return lineage->Eval(row, ctx);
  }
  assert(static_cast<size_t>(index_) < row.size());
  return row[index_];
}

Interval ColumnRefExpr::EvalInterval(const Row& row,
                                     const EvalContext& ctx) const {
  if (ctx.column_lineage != nullptr &&
      static_cast<size_t>(index_) < ctx.column_lineage->size()) {
    const ExprPtr& lineage = (*ctx.column_lineage)[index_];
    if (lineage != nullptr) return lineage->EvalInterval(row, ctx);
  }
  const Value& v = row[index_];
  if (v.is_numeric()) return Interval::Point(v.AsDouble());
  return Interval::Unbounded();
}

bool ColumnRefExpr::DependsOnUncertain(
    const std::vector<ExprPtr>* column_lineage) const {
  if (column_lineage == nullptr) return false;
  if (static_cast<size_t>(index_) >= column_lineage->size()) return false;
  return (*column_lineage)[index_] != nullptr;
}

// ------------------------------------------------------------------ Unary

Value UnaryExpr::Eval(const Row& row, const EvalContext& ctx) const {
  const Value v = operand_->Eval(row, ctx);
  if (v.is_null()) return Value::Null();
  if (op_ == UnaryOp::kNot) return Value::Bool(!v.IsTruthy());
  return NumericNeg(NumericValue::Of(v)).ToValue();
}

Interval UnaryExpr::EvalInterval(const Row& row, const EvalContext& ctx) const {
  const Interval v = operand_->EvalInterval(row, ctx);
  if (op_ == UnaryOp::kNeg) return IntervalNeg(v);
  // NOT of a truth interval.
  if (v.IsPoint()) return Interval::Point(v.lo != 0.0 ? 0.0 : 1.0);
  return Interval(0.0, 1.0);
}

std::string UnaryExpr::ToString() const {
  return std::string(op_ == UnaryOp::kNeg ? "-" : "NOT ") + "(" +
         operand_->ToString() + ")";
}

// ----------------------------------------------------------------- Binary

Value BinaryExpr::Eval(const Row& row, const EvalContext& ctx) const {
  const Value l = left_->Eval(row, ctx);
  const Value r = right_->Eval(row, ctx);
  if (IsComparison(op_)) return EvalComparison(op_, l, r);
  if (IsLogical(op_)) return AndOr(op_ == BinaryOp::kAnd, l, r);
  return EvalArith(op_, l, r, output_type());
}

Interval BinaryExpr::EvalInterval(const Row& row, const EvalContext& ctx) const {
  if (IsComparison(op_) || IsLogical(op_)) {
    return TruthInterval(ClassifyPredicate(*this, row, ctx));
  }
  const Interval l = left_->EvalInterval(row, ctx);
  const Interval r = right_->EvalInterval(row, ctx);
  switch (op_) {
    case BinaryOp::kAdd:
      return IntervalAdd(l, r);
    case BinaryOp::kSub:
      return IntervalSub(l, r);
    case BinaryOp::kMul:
      return IntervalMul(l, r);
    case BinaryOp::kDiv:
      return IntervalDiv(l, r);
    case BinaryOp::kMod:
      // Bounded by the divisor when deterministic, otherwise unknown.
      if (r.IsPoint() && r.lo != 0.0) {
        const double m = std::fabs(r.lo);
        return Interval(-m, m);
      }
      return Interval::Unbounded();
    default:
      return Interval::Unbounded();
  }
}

std::string BinaryExpr::ToString() const {
  const char* op = "?";
  switch (op_) {
    case BinaryOp::kAdd:
      op = "+";
      break;
    case BinaryOp::kSub:
      op = "-";
      break;
    case BinaryOp::kMul:
      op = "*";
      break;
    case BinaryOp::kDiv:
      op = "/";
      break;
    case BinaryOp::kMod:
      op = "%";
      break;
    case BinaryOp::kEq:
      op = "=";
      break;
    case BinaryOp::kNe:
      op = "<>";
      break;
    case BinaryOp::kLt:
      op = "<";
      break;
    case BinaryOp::kLe:
      op = "<=";
      break;
    case BinaryOp::kGt:
      op = ">";
      break;
    case BinaryOp::kGe:
      op = ">=";
      break;
    case BinaryOp::kAnd:
      op = "AND";
      break;
    case BinaryOp::kOr:
      op = "OR";
      break;
  }
  return "(" + left_->ToString() + " " + op + " " + right_->ToString() + ")";
}

// ------------------------------------------------------------------- Call

CallExpr::CallExpr(const ScalarFunction* fn, std::vector<ExprPtr> args,
                   ValueType type)
    : Expr(Kind::kCall, type), fn_(fn), args_(std::move(args)) {
  assert(fn_ != nullptr && fn_->signature.AcceptsArity(args_.size()));
}

Value CallExpr::Eval(const Row& row, const EvalContext& ctx) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& arg : args_) args.push_back(arg->Eval(row, ctx));
  return CallBoxed(*fn_, args.data(), args.size(), output_type());
}

Interval CallExpr::EvalInterval(const Row& row, const EvalContext& ctx) const {
  // If no argument is uncertain, the call collapses to a point.
  if (!DependsOnUncertain(ctx.column_lineage)) {
    const Value v = Eval(row, ctx);
    if (v.is_numeric()) return Interval::Point(v.AsDouble());
    return Interval::Unbounded();
  }
  // Monotone (non-decreasing) functions map interval endpoints through.
  if (fn_->monotone && args_.size() == 1) {
    const Interval in = args_[0]->EvalInterval(row, ctx);
    if (!in.IsUnbounded()) {
      const Value ends[2] = {Value::Double(in.lo), Value::Double(in.hi)};
      const Value lo = fn_->boxed(&ends[0], 1);
      const Value hi = fn_->boxed(&ends[1], 1);
      if (lo.is_numeric() && hi.is_numeric()) {
        return Interval(lo.AsDouble(), hi.AsDouble());
      }
    }
  }
  // Black-box UDF over uncertain input: conservative.
  return Interval::Unbounded();
}

bool CallExpr::DependsOnUncertain(const std::vector<ExprPtr>* cl) const {
  for (const auto& arg : args_) {
    if (arg->DependsOnUncertain(cl)) return true;
  }
  return false;
}

void CallExpr::CollectAggLookups(std::vector<const AggLookupExpr*>* out) const {
  for (const auto& arg : args_) arg->CollectAggLookups(out);
}

std::string CallExpr::ToString() const {
  std::string out = fn_->name + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + ")";
}

// -------------------------------------------------------------- AggLookup

Row AggLookupExpr::EvalKey(const Row& row, const EvalContext& ctx) const {
  Row key;
  key.reserve(key_exprs_.size());
  for (const auto& expr : key_exprs_) key.push_back(expr->Eval(row, ctx));
  return key;
}

Value AggLookupExpr::Eval(const Row& row, const EvalContext& ctx) const {
  assert(ctx.resolver != nullptr);
  const Row key = EvalKey(row, ctx);
  Value v = ctx.trial >= 0
                ? ctx.resolver->LookupTrial(block_id_, agg_col_, key, ctx.trial)
                : ctx.resolver->Lookup(block_id_, agg_col_, key);
  // A replica that does not fit the static type (a string aggregate's trial
  // replicas are doubles) reads as NULL, as in the compiled read.
  return FitsType(v.type(), output_type()) ? v : Value::Null();
}

Interval AggLookupExpr::EvalInterval(const Row& row,
                                     const EvalContext& ctx) const {
  assert(ctx.resolver != nullptr);
  return ctx.resolver->LookupRange(block_id_, agg_col_, EvalKey(row, ctx));
}

std::string AggLookupExpr::ToString() const {
  std::string out = "agg[" + std::to_string(block_id_) + "." + debug_name_;
  if (!key_exprs_.empty()) {
    out += " key=(";
    for (size_t i = 0; i < key_exprs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += key_exprs_[i]->ToString();
    }
    out += ")";
  }
  return out + "]";
}

// ----------------------------------------------------------- constructors

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr Lit(double v) { return Lit(Value::Double(v)); }
ExprPtr Lit(const char* v) { return Lit(Value::String(v)); }

ExprPtr Col(int index, std::string name, ValueType type) {
  return std::make_shared<ColumnRefExpr>(index, std::move(name), type);
}

ExprPtr Neg(ExprPtr e) {
  const ValueType t = e->output_type();
  return std::make_shared<UnaryExpr>(Expr::UnaryOp::kNeg, std::move(e), t);
}

ExprPtr Not(ExprPtr e) {
  return std::make_shared<UnaryExpr>(Expr::UnaryOp::kNot, std::move(e),
                                     ValueType::kInt64);
}

ExprPtr MakeBinary(Expr::BinaryOp op, ExprPtr l, ExprPtr r) {
  ValueType type = ValueType::kInt64;
  switch (op) {
    case Expr::BinaryOp::kAdd:
    case Expr::BinaryOp::kSub:
    case Expr::BinaryOp::kMul:
      type = PromoteNumeric(l->output_type(), r->output_type());
      break;
    case Expr::BinaryOp::kDiv:
      type = ValueType::kDouble;
      break;
    default:
      type = ValueType::kInt64;  // mod, comparisons, logic
      break;
  }
  return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r), type);
}

ExprPtr Add(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kDiv, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kGe, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kAnd, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return MakeBinary(Expr::BinaryOp::kOr, std::move(l), std::move(r));
}

ExprPtr Conjunction(std::vector<ExprPtr> terms) {
  ExprPtr result;
  for (auto& term : terms) {
    result = result == nullptr ? std::move(term)
                               : And(std::move(result), std::move(term));
  }
  return result;
}

// --------------------------------------------------- PushBoundConstraint

namespace {

// Full-containment fallback: every aggregate the subtree references must
// stay within its current range.
void RequireContainmentAll(const Expr& expr, const Row& row,
                           const EvalContext& ctx, RangeConstraintSink* sink) {
  std::vector<const AggLookupExpr*> lookups;
  expr.CollectAggLookups(&lookups);
  for (const AggLookupExpr* lookup : lookups) {
    sink->RequireContainment(lookup->block_id(), lookup->agg_col(),
                             lookup->EvalKey(row, ctx));
  }
  // Uncertain columns reached through lineage.
  if (ctx.column_lineage == nullptr) return;
  if (expr.kind() == Expr::Kind::kColumnRef) {
    const auto& ref = static_cast<const ColumnRefExpr&>(expr);
    if (static_cast<size_t>(ref.index()) < ctx.column_lineage->size()) {
      const ExprPtr& lineage = (*ctx.column_lineage)[ref.index()];
      if (lineage != nullptr) RequireContainmentAll(*lineage, row, ctx, sink);
    }
  } else {
    // Recurse for column refs nested under operators/calls.
    switch (expr.kind()) {
      case Expr::Kind::kUnary:
        RequireContainmentAll(*static_cast<const UnaryExpr&>(expr).operand(),
                              row, ctx, sink);
        break;
      case Expr::Kind::kBinary: {
        const auto& bin = static_cast<const BinaryExpr&>(expr);
        RequireContainmentAll(*bin.left(), row, ctx, sink);
        RequireContainmentAll(*bin.right(), row, ctx, sink);
        break;
      }
      case Expr::Kind::kCall:
        for (const auto& arg : static_cast<const CallExpr&>(expr).args()) {
          RequireContainmentAll(*arg, row, ctx, sink);
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace

void PushBoundConstraint(const Expr& expr, bool upper, double bound,
                         const Row& row, const EvalContext& ctx,
                         RangeConstraintSink* sink) {
  if (!expr.DependsOnUncertain(ctx.column_lineage)) return;
  switch (expr.kind()) {
    case Expr::Kind::kAggLookup: {
      const auto& lookup = static_cast<const AggLookupExpr&>(expr);
      const Row key = lookup.EvalKey(row, ctx);
      if (upper) {
        sink->RequireUpper(lookup.block_id(), lookup.agg_col(), key, bound);
      } else {
        sink->RequireLower(lookup.block_id(), lookup.agg_col(), key, bound);
      }
      return;
    }
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      const ExprPtr& lineage = (*ctx.column_lineage)[ref.index()];
      PushBoundConstraint(*lineage, upper, bound, row, ctx, sink);
      return;
    }
    case Expr::Kind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      if (unary.op() == Expr::UnaryOp::kNeg) {
        PushBoundConstraint(*unary.operand(), !upper, -bound, row, ctx, sink);
        return;
      }
      break;  // NOT over uncertain truth: fallback
    }
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      const bool left_uncertain = bin.left()->DependsOnUncertain(ctx.column_lineage);
      const bool right_uncertain =
          bin.right()->DependsOnUncertain(ctx.column_lineage);
      if (left_uncertain && right_uncertain) break;  // fallback
      const Expr& uncertain = left_uncertain ? *bin.left() : *bin.right();
      const Expr& deterministic = left_uncertain ? *bin.right() : *bin.left();
      const Value dv = deterministic.Eval(row, ctx);
      if (dv.is_null() || !dv.is_numeric()) break;
      const double d = dv.AsDouble();
      switch (bin.op()) {
        case Expr::BinaryOp::kAdd:
          // u + d ≤ b  ⇔  u ≤ b − d
          PushBoundConstraint(uncertain, upper, bound - d, row, ctx, sink);
          return;
        case Expr::BinaryOp::kSub:
          if (left_uncertain) {
            // u − d ≤ b  ⇔  u ≤ b + d
            PushBoundConstraint(uncertain, upper, bound + d, row, ctx, sink);
          } else {
            // d − u ≤ b  ⇔  u ≥ d − b
            PushBoundConstraint(uncertain, !upper, d - bound, row, ctx, sink);
          }
          return;
        case Expr::BinaryOp::kMul:
          if (d > 0) {
            // u·d ≤ b  ⇔  u ≤ b/d
            PushBoundConstraint(uncertain, upper, bound / d, row, ctx, sink);
            return;
          }
          if (d < 0) {
            PushBoundConstraint(uncertain, !upper, bound / d, row, ctx, sink);
            return;
          }
          return;  // ×0: constant zero, no obligation
        case Expr::BinaryOp::kDiv:
          if (left_uncertain && d > 0) {
            PushBoundConstraint(uncertain, upper, bound * d, row, ctx, sink);
            return;
          }
          if (left_uncertain && d < 0) {
            PushBoundConstraint(uncertain, !upper, bound * d, row, ctx, sink);
            return;
          }
          break;  // d/u: non-monotone across 0, fallback
        default:
          break;  // comparisons/mod as values: fallback
      }
      break;
    }
    default:
      break;
  }
  RequireContainmentAll(expr, row, ctx, sink);
}

// ----------------------------------------------------- ClassifyPredicate

IntervalTruth ClassifyPredicate(const Expr& pred, const Row& row,
                                const EvalContext& ctx) {
  // Fast path: deterministic predicates classify by direct evaluation.
  if (!pred.DependsOnUncertain(ctx.column_lineage)) {
    const Value v = pred.Eval(row, ctx);
    return v.IsTruthy() ? IntervalTruth::kAlwaysTrue
                        : IntervalTruth::kAlwaysFalse;
  }
  if (pred.kind() == Expr::Kind::kUnary) {
    const auto& unary = static_cast<const UnaryExpr&>(pred);
    if (unary.op() == Expr::UnaryOp::kNot) {
      return Negate(ClassifyPredicate(*unary.operand(), row, ctx));
    }
    return IntervalTruth::kUndecided;
  }
  if (pred.kind() == Expr::Kind::kBinary) {
    const auto& binary = static_cast<const BinaryExpr&>(pred);
    const Expr::BinaryOp op = binary.op();
    if (op == Expr::BinaryOp::kAnd || op == Expr::BinaryOp::kOr) {
      // Short-circuit: when the left side alone decides the conjunction,
      // the right side's variation ranges are never consulted. Besides
      // saving work, this keeps the pruning-dependency trace minimal — a
      // row rejected by a deterministic conjunct does not depend on the
      // uncertain one.
      const IntervalTruth l = ClassifyPredicate(*binary.left(), row, ctx);
      if (op == Expr::BinaryOp::kAnd) {
        if (l == IntervalTruth::kAlwaysFalse) return IntervalTruth::kAlwaysFalse;
        const IntervalTruth r = ClassifyPredicate(*binary.right(), row, ctx);
        if (r == IntervalTruth::kAlwaysFalse) return IntervalTruth::kAlwaysFalse;
        if (l == IntervalTruth::kAlwaysTrue && r == IntervalTruth::kAlwaysTrue)
          return IntervalTruth::kAlwaysTrue;
        return IntervalTruth::kUndecided;
      }
      if (l == IntervalTruth::kAlwaysTrue) return IntervalTruth::kAlwaysTrue;
      const IntervalTruth r = ClassifyPredicate(*binary.right(), row, ctx);
      if (r == IntervalTruth::kAlwaysTrue) return IntervalTruth::kAlwaysTrue;
      if (l == IntervalTruth::kAlwaysFalse && r == IntervalTruth::kAlwaysFalse)
        return IntervalTruth::kAlwaysFalse;
      return IntervalTruth::kUndecided;
    }
    if (IsComparison(op)) {
      const Interval l = binary.left()->EvalInterval(row, ctx);
      const Interval r = binary.right()->EvalInterval(row, ctx);
      IntervalTruth truth = IntervalTruth::kUndecided;
      // Which operand must stay below which for the decided outcome to
      // keep holding (null = the decision carries no order obligation).
      const Expr* below = nullptr;
      const Expr* above = nullptr;
      Interval below_iv, above_iv;
      auto order = [&](const Expr* lo_side, const Interval& lo_iv,
                       const Expr* hi_side, const Interval& hi_iv) {
        below = lo_side;
        below_iv = lo_iv;
        above = hi_side;
        above_iv = hi_iv;
      };
      switch (op) {
        case Expr::BinaryOp::kLt:
        case Expr::BinaryOp::kLe:
          truth = op == Expr::BinaryOp::kLt ? IntervalLess(l, r)
                                            : IntervalLessEq(l, r);
          if (truth == IntervalTruth::kAlwaysTrue) {
            order(binary.left().get(), l, binary.right().get(), r);
          } else if (truth == IntervalTruth::kAlwaysFalse) {
            order(binary.right().get(), r, binary.left().get(), l);
          }
          break;
        case Expr::BinaryOp::kGt:
        case Expr::BinaryOp::kGe:
          truth = op == Expr::BinaryOp::kGt ? IntervalLess(r, l)
                                            : IntervalLessEq(r, l);
          if (truth == IntervalTruth::kAlwaysTrue) {
            order(binary.right().get(), r, binary.left().get(), l);
          } else if (truth == IntervalTruth::kAlwaysFalse) {
            order(binary.left().get(), l, binary.right().get(), r);
          }
          break;
        case Expr::BinaryOp::kEq:
        case Expr::BinaryOp::kNe: {
          const IntervalTruth eq = IntervalEq(l, r);
          truth = op == Expr::BinaryOp::kEq ? eq : Negate(eq);
          if (eq == IntervalTruth::kAlwaysFalse) {
            // Disjoint: remember which side sits below.
            if (l.hi < r.lo) {
              order(binary.left().get(), l, binary.right().get(), r);
            } else {
              order(binary.right().get(), r, binary.left().get(), l);
            }
          } else if (eq == IntervalTruth::kAlwaysTrue &&
                     ctx.constraint_sink != nullptr) {
            // Point equality: both operands must stay pinned.
            const double v = l.lo;
            PushBoundConstraint(*binary.left(), true, v, row, ctx,
                                ctx.constraint_sink);
            PushBoundConstraint(*binary.left(), false, v, row, ctx,
                                ctx.constraint_sink);
            PushBoundConstraint(*binary.right(), true, v, row, ctx,
                                ctx.constraint_sink);
            PushBoundConstraint(*binary.right(), false, v, row, ctx,
                                ctx.constraint_sink);
          }
          break;
        }
        default:
          break;
      }
      if (truth != IntervalTruth::kUndecided && below != nullptr &&
          ctx.constraint_sink != nullptr) {
        // The decision needs `below` to stay under `above`: register a
        // separator between their current intervals on both sides.
        double separator = (below_iv.hi + above_iv.lo) / 2.0;
        if (!std::isfinite(separator)) {
          if (std::isfinite(below_iv.hi)) {
            separator = below_iv.hi;
          } else if (std::isfinite(above_iv.lo)) {
            separator = above_iv.lo;
          }
        }
        if (std::isfinite(separator)) {
          PushBoundConstraint(*below, /*upper=*/true, separator, row, ctx,
                              ctx.constraint_sink);
          PushBoundConstraint(*above, /*upper=*/false, separator, row, ctx,
                              ctx.constraint_sink);
        }
      }
      return truth;
    }
    return IntervalTruth::kUndecided;
  }
  // Any other uncertain expression used as a predicate: conservative.
  return IntervalTruth::kUndecided;
}

// ------------------------------------------------------------ RemapColumns

ExprPtr RemapColumns(const ExprPtr& expr, const std::vector<int>& mapping) {
  switch (expr->kind()) {
    case Expr::Kind::kLiteral:
      return expr;
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(*expr);
      assert(static_cast<size_t>(ref.index()) < mapping.size());
      const int target = mapping[ref.index()];
      assert(target >= 0 && "remapped column must exist in the new layout");
      if (target == ref.index()) return expr;
      return Col(target, ref.name(), ref.output_type());
    }
    case Expr::Kind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(*expr);
      return std::make_shared<UnaryExpr>(unary.op(),
                                         RemapColumns(unary.operand(), mapping),
                                         unary.output_type());
    }
    case Expr::Kind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(*expr);
      return std::make_shared<BinaryExpr>(
          binary.op(), RemapColumns(binary.left(), mapping),
          RemapColumns(binary.right(), mapping), binary.output_type());
    }
    case Expr::Kind::kCall: {
      const auto& call = static_cast<const CallExpr&>(*expr);
      std::vector<ExprPtr> args;
      args.reserve(call.args().size());
      for (const auto& arg : call.args()) {
        args.push_back(RemapColumns(arg, mapping));
      }
      return std::make_shared<CallExpr>(&call.function(), std::move(args),
                                        call.output_type());
    }
    case Expr::Kind::kAggLookup: {
      const auto& lookup = static_cast<const AggLookupExpr&>(*expr);
      std::vector<ExprPtr> keys;
      keys.reserve(lookup.key_exprs().size());
      for (const auto& key : lookup.key_exprs()) {
        keys.push_back(RemapColumns(key, mapping));
      }
      return std::make_shared<AggLookupExpr>(lookup.block_id(),
                                             lookup.agg_col(), std::move(keys),
                                             lookup.output_type(),
                                             lookup.ToString());
    }
  }
  return expr;
}

}  // namespace iolap
