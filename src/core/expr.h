#ifndef IOLAP_CORE_EXPR_H_
#define IOLAP_CORE_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/interval.h"
#include "core/schema.h"
#include "core/value.h"

namespace iolap {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct ScalarFunction;

/// Resolves references to the (current) output of upstream aggregate
/// lineage blocks. Implemented by iolap::AggregateRegistry; declared here so
/// the expression layer stays independent of the delta engine.
///
/// This interface is the runtime realization of the paper's lineage-based
/// lazy evaluation (§6.2): an uncertain attribute is re-computed by joining
/// its carried lineage `(rel, key)` with the up-to-date aggregate relation —
/// here, a hash lookup into the registry.
class AggLookupResolver {
 public:
  virtual ~AggLookupResolver() = default;

  /// Current (running, scaled) value of aggregate output column `col` of
  /// block `block_id` for group `key`. Null if the group has no entry yet.
  virtual Value Lookup(int block_id, int col, const Row& key) const = 0;

  /// The value the aggregate takes in bootstrap trial `trial`.
  virtual Value LookupTrial(int block_id, int col, const Row& key,
                            int trial) const = 0;

  /// Batched form: fills `out[t] = LookupTrial(block_id, col, key, t)` for
  /// every t in [0, num_trials). The default implementation loops;
  /// implementations backed by a per-group replica store override it to
  /// resolve the group once and copy its trial vector, which is what lets
  /// the compiled expression path (exec/expr_program) hoist the group probe
  /// out of the per-trial hot loop.
  virtual void LookupTrials(int block_id, int col, const Row& key,
                            int num_trials, Value* out) const;

  /// The current variation range R(u) of the aggregate (§5.1). Unbounded
  /// if the group has no entry yet.
  virtual Interval LookupRange(int block_id, int col, const Row& key) const = 0;
};

/// Receives the obligations a pruning decision places on uncertain
/// aggregates: "the value of (block, col, key) must stay ≤/≥ bound for the
/// decision to remain valid", or full containment in its current range
/// when the dependence is not recognizably monotone. Implemented by
/// iolap::AggregateRegistry, which routes the bounds to the per-group
/// variation-range trackers (§5.1 integrity checking).
class RangeConstraintSink {
 public:
  virtual ~RangeConstraintSink() = default;
  virtual void RequireUpper(int block, int col, const Row& key,
                            double bound) = 0;
  virtual void RequireLower(int block, int col, const Row& key,
                            double bound) = 0;
  virtual void RequireContainment(int block, int col, const Row& key) = 0;
};

/// Everything expression evaluation can touch. `column_lineage`, when
/// non-null, maps each column of the current row to the lineage expression
/// that computes it (null entry = deterministic column); trial and interval
/// evaluation of a column reference re-derives the column through its
/// lineage instead of trusting the possibly stale stored value.
struct EvalContext {
  const AggLookupResolver* resolver = nullptr;
  const std::vector<ExprPtr>* column_lineage = nullptr;
  /// Bootstrap trial index for Eval(); -1 selects the main (non-bootstrap)
  /// evaluation.
  int trial = -1;
  /// When set, ClassifyPredicate registers the bounds each decided
  /// comparison needs onto the uncertain values it consulted.
  RangeConstraintSink* constraint_sink = nullptr;
};

/// An immutable expression tree node. Expressions are shared (shared_ptr)
/// and never mutated after binding, so one tree serves every row and every
/// thread. The binder performs all type checking; runtime evaluation follows
/// SQL semantics with NULL propagation and never fails.
class Expr {
 public:
  enum class Kind {
    kLiteral,
    kColumnRef,
    kUnary,
    kBinary,
    kCall,
    kAggLookup,
  };

  enum class UnaryOp { kNeg, kNot };

  enum class BinaryOp {
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMod,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAnd,
    kOr,
  };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }
  ValueType output_type() const { return output_type_; }

  /// Evaluates against `row`. With ctx.trial >= 0 this produces the value
  /// the expression takes in that bootstrap trial (resolving aggregate
  /// lookups to their trial replicas).
  virtual Value Eval(const Row& row, const EvalContext& ctx) const = 0;

  /// Conservative range of values this expression can take across the
  /// remaining online execution, given the variation ranges of the
  /// uncertain aggregates it references. Deterministic numeric
  /// subexpressions collapse to points.
  virtual Interval EvalInterval(const Row& row, const EvalContext& ctx) const = 0;

  /// True if this subtree references an uncertain aggregate — either
  /// directly (an AggLookup leaf) or through a column whose lineage in
  /// `column_lineage` is non-null.
  virtual bool DependsOnUncertain(
      const std::vector<ExprPtr>* column_lineage) const = 0;

  /// Appends all AggLookup leaves in the subtree (for plan analysis).
  virtual void CollectAggLookups(
      std::vector<const class AggLookupExpr*>* out) const = 0;

  virtual std::string ToString() const = 0;

 protected:
  Expr(Kind kind, ValueType output_type)
      : kind_(kind), output_type_(output_type) {}

 private:
  Kind kind_;
  ValueType output_type_;
};

/// A constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(Kind::kLiteral, value.type()), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Value Eval(const Row& row, const EvalContext& ctx) const override;
  Interval EvalInterval(const Row& row, const EvalContext& ctx) const override;
  bool DependsOnUncertain(const std::vector<ExprPtr>*) const override {
    return false;
  }
  void CollectAggLookups(std::vector<const AggLookupExpr*>*) const override {}
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

/// A reference to column `index` of the input row.
class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(int index, std::string name, ValueType type)
      : Expr(Kind::kColumnRef, type), index_(index), name_(std::move(name)) {}

  int index() const { return index_; }
  const std::string& name() const { return name_; }

  Value Eval(const Row& row, const EvalContext& ctx) const override;
  Interval EvalInterval(const Row& row, const EvalContext& ctx) const override;
  bool DependsOnUncertain(
      const std::vector<ExprPtr>* column_lineage) const override;
  void CollectAggLookups(std::vector<const AggLookupExpr*>*) const override {}
  std::string ToString() const override { return name_; }

 private:
  int index_;
  std::string name_;
};

/// Unary negation / logical NOT.
class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand, ValueType type)
      : Expr(Kind::kUnary, type), op_(op), operand_(std::move(operand)) {}

  UnaryOp op() const { return op_; }
  const ExprPtr& operand() const { return operand_; }

  Value Eval(const Row& row, const EvalContext& ctx) const override;
  Interval EvalInterval(const Row& row, const EvalContext& ctx) const override;
  bool DependsOnUncertain(const std::vector<ExprPtr>* cl) const override {
    return operand_->DependsOnUncertain(cl);
  }
  void CollectAggLookups(std::vector<const AggLookupExpr*>* out) const override {
    operand_->CollectAggLookups(out);
  }
  std::string ToString() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Arithmetic / comparison / logical binary operation.
class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right, ValueType type)
      : Expr(Kind::kBinary, type),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Value Eval(const Row& row, const EvalContext& ctx) const override;
  Interval EvalInterval(const Row& row, const EvalContext& ctx) const override;
  bool DependsOnUncertain(const std::vector<ExprPtr>* cl) const override {
    return left_->DependsOnUncertain(cl) || right_->DependsOnUncertain(cl);
  }
  void CollectAggLookups(std::vector<const AggLookupExpr*>* out) const override {
    left_->CollectAggLookups(out);
    right_->CollectAggLookups(out);
  }
  std::string ToString() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// A call to a registered scalar function (built-in or UDF), resolved by
/// the binder. `fn` is owned by the FunctionRegistry the plan holds
/// (QueryPlan::functions), and `args` fit its signature.
class CallExpr final : public Expr {
 public:
  CallExpr(const ScalarFunction* fn, std::vector<ExprPtr> args, ValueType type);

  const ScalarFunction& function() const { return *fn_; }
  const std::vector<ExprPtr>& args() const { return args_; }

  Value Eval(const Row& row, const EvalContext& ctx) const override;
  Interval EvalInterval(const Row& row, const EvalContext& ctx) const override;
  bool DependsOnUncertain(const std::vector<ExprPtr>* cl) const override;
  void CollectAggLookups(std::vector<const AggLookupExpr*>* out) const override;
  std::string ToString() const override;

 private:
  const ScalarFunction* fn_;
  std::vector<ExprPtr> args_;
};

/// A reference to an aggregate produced by an upstream lineage block: the
/// compiled form of a scalar subquery (key_exprs empty) or a correlated /
/// group-keyed subquery (key_exprs compute the group key from the current
/// row's deterministic columns). This node is the paper's propagated lineage
/// `L = {(rel(γ), t.key)}` (§6.1): evaluation is a lookup into the
/// up-to-date aggregate relation.
class AggLookupExpr final : public Expr {
 public:
  AggLookupExpr(int block_id, int agg_col, std::vector<ExprPtr> key_exprs,
                ValueType type, std::string debug_name)
      : Expr(Kind::kAggLookup, type),
        block_id_(block_id),
        agg_col_(agg_col),
        key_exprs_(std::move(key_exprs)),
        debug_name_(std::move(debug_name)) {}

  int block_id() const { return block_id_; }
  int agg_col() const { return agg_col_; }
  const std::vector<ExprPtr>& key_exprs() const { return key_exprs_; }

  /// Computes this row's group key.
  Row EvalKey(const Row& row, const EvalContext& ctx) const;

  Value Eval(const Row& row, const EvalContext& ctx) const override;
  Interval EvalInterval(const Row& row, const EvalContext& ctx) const override;
  bool DependsOnUncertain(const std::vector<ExprPtr>*) const override {
    return true;
  }
  void CollectAggLookups(std::vector<const AggLookupExpr*>* out) const override {
    out->push_back(this);
  }
  std::string ToString() const override;

 private:
  int block_id_;
  int agg_col_;
  std::vector<ExprPtr> key_exprs_;
  std::string debug_name_;
};

// Convenience constructors. Types are inferred with SQL-ish promotion
// (int64 op double -> double; comparisons/logic -> int64 booleans).
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Col(int index, std::string name, ValueType type);
ExprPtr Neg(ExprPtr e);
ExprPtr Not(ExprPtr e);
ExprPtr MakeBinary(Expr::BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);

/// AND over a list (nullptr for empty).
ExprPtr Conjunction(std::vector<ExprPtr> terms);

/// Tri-state classification of a predicate given the variation ranges of
/// the uncertain aggregates it (transitively) references. This is the §5
/// partitioning test: kUndecided rows form the non-deterministic set U,
/// kAlwaysTrue/kAlwaysFalse rows are near-deterministic and are pruned.
///
/// With ctx.constraint_sink set, every comparison that reaches a decided
/// outcome registers the bound obligations that keep the decision valid
/// (see RangeConstraintSink); undecided comparisons register nothing.
IntervalTruth ClassifyPredicate(const Expr& pred, const Row& row,
                                const EvalContext& ctx);

/// Registers "expr ≤ bound" (`upper` = true) or "expr ≥ bound" onto the
/// uncertain aggregates `expr` derives from, inverting through the
/// monotone structure it recognizes (±, × / ÷ by deterministic factors,
/// negation, lineage columns). Falls back to full-range containment of
/// every referenced aggregate when the dependence is not recognizably
/// monotone (UDFs, products of two uncertain values, ...).
void PushBoundConstraint(const Expr& expr, bool upper, double bound,
                         const Row& row, const EvalContext& ctx,
                         RangeConstraintSink* sink);

/// Rewrites `expr`, remapping every ColumnRef index through `mapping`
/// (mapping[i] = new index of old column i). Used when operators reshape
/// rows (projection push-through for lineage expressions).
ExprPtr RemapColumns(const ExprPtr& expr, const std::vector<int>& mapping);

}  // namespace iolap

#endif  // IOLAP_CORE_EXPR_H_
