#include "exec/expr_program.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

namespace iolap {

using expr_prog::AggSlot;
using expr_prog::StrReg;

namespace {

constexpr int kMaxCompileDepth = 64;
constexpr int kMaxRegs = 0xFFFF;

// Loads a Value into a numeric register; a string (which no numeric slot
// holds, see FitsType) reads as NULL.
inline NumericValue LoadNum(const Value& v) {
  return v.type() == ValueType::kString ? NumericValue::Null()
                                        : NumericValue::Of(v);
}

// Loads a Value into a string register; a number reads as NULL.
inline void LoadStr(StrReg* d, const Value& v) {
  if (v.type() == ValueType::kString) {
    d->s = v.str();
    d->null = false;
  } else {
    *d = StrReg{};
  }
}

}  // namespace

// ----------------------------------------------------------------- compiler

/// Builds one ExprProgram. Single-use; not thread-safe (programs are
/// compiled once per block at plan time).
class ExprProgramCompiler {
 public:
  explicit ExprProgramCompiler(const std::vector<ExprPtr>* lineage)
      : lineage_(lineage), prog_(new ExprProgram()) {}

  bool AddRoot(const ExprPtr& root) {
    if (root == nullptr) {
      Fail("null root");
      return false;
    }
    auto slot = CompileNode(*root, 0);
    if (!slot.has_value()) return false;
    prog_->roots_.push_back({slot->out, slot->invariant});
    return true;
  }

  /// The rule of the first refusal ("" while none).
  const std::string& refusal() const { return refusal_; }

  std::unique_ptr<const ExprProgram> Finish() {
    if (failed_) return nullptr;
    prog_->num_regs_ = static_cast<uint16_t>(next_num_);
    prog_->str_regs_ = static_cast<uint16_t>(next_str_);
    prog_->owned_slots_ = static_cast<uint16_t>(next_owned_);
    return std::move(prog_);
  }

 private:
  using Operand = ExprProgram::Operand;
  using Insn = ExprProgram::Insn;
  using Op = ExprProgram::Op;

  struct Slot {
    Operand out;
    bool invariant = true;
  };
  using MaybeSlot = std::optional<Slot>;

  MaybeSlot Fail(const char* rule) {
    if (!failed_) refusal_ = rule;
    failed_ = true;
    return std::nullopt;
  }

  bool StaticallyString(const Expr& e) const {
    return e.output_type() == ValueType::kString;
  }

  int NewNum() {
    if (next_num_ >= kMaxRegs) {
      Fail("register file full");
      return 0;
    }
    return next_num_++;
  }

  int NewStr() {
    if (next_str_ >= kMaxRegs) {
      Fail("register file full");
      return 0;
    }
    return next_str_++;
  }

  void Emit(bool invariant, Insn insn) {
    (invariant ? prog_->prologue_ : prog_->epilogue_).push_back(insn);
  }

  // True if `e` is a compile-time constant: no row or aggregate dependence,
  // so a one-shot interpreter evaluation is its value.
  static bool Foldable(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return true;
      case Expr::Kind::kColumnRef:
      case Expr::Kind::kAggLookup:
        return false;
      case Expr::Kind::kUnary:
        return Foldable(*static_cast<const UnaryExpr&>(e).operand());
      case Expr::Kind::kBinary: {
        const auto& bin = static_cast<const BinaryExpr&>(e);
        return Foldable(*bin.left()) && Foldable(*bin.right());
      }
      case Expr::Kind::kCall: {
        const auto& call = static_cast<const CallExpr&>(e);
        for (const auto& arg : call.args()) {
          if (!Foldable(*arg)) return false;
        }
        return true;
      }
    }
    return false;
  }

  MaybeSlot EmitLiteral(const Value& v) {
    if (v.type() == ValueType::kString) {
      auto it = str_literals_.find(v.str());
      if (it != str_literals_.end()) {
        return Slot{Operand{it->second, true}, true};
      }
      const int reg = NewStr();
      if (failed_) return std::nullopt;
      prog_->const_str_.push_back(
          {static_cast<uint16_t>(reg),
           static_cast<uint32_t>(prog_->const_str_pool_.size())});
      prog_->const_str_pool_.push_back(v.str());
      str_literals_.emplace(v.str(), static_cast<uint16_t>(reg));
      return Slot{Operand{static_cast<uint16_t>(reg), true}, true};
    }
    const NumericValue r = NumericValue::Of(v);
    const auto key = std::make_pair(static_cast<int>(r.tag),
                                    r.tag == ValueType::kDouble
                                        ? BitsOf(r.f64)
                                        : static_cast<uint64_t>(r.i64));
    auto it = num_literals_.find(key);
    if (it != num_literals_.end()) {
      return Slot{Operand{it->second, false}, true};
    }
    const int reg = NewNum();
    if (failed_) return std::nullopt;
    prog_->const_num_.push_back({static_cast<uint16_t>(reg), r});
    num_literals_.emplace(key, static_cast<uint16_t>(reg));
    return Slot{Operand{static_cast<uint16_t>(reg), false}, true};
  }

  static uint64_t BitsOf(double d) {
    uint64_t bits;
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return bits;
  }

  MaybeSlot CompileNode(const Expr& e, int depth) {
    if (failed_) return std::nullopt;
    if (depth > kMaxCompileDepth) return Fail("lineage nested too deep");
    auto memo = memo_.find(&e);
    if (memo != memo_.end()) return memo->second;
    MaybeSlot slot = CompileNodeImpl(e, depth);
    if (slot.has_value()) memo_.emplace(&e, *slot);
    return slot;
  }

  MaybeSlot CompileNodeImpl(const Expr& e, int depth) {
    // Constant folding: row- and trial-independent subtrees evaluate once
    // at compile time through the interpreter (the oracle by definition).
    // A NULL has no string constant, so a statically-string subtree that
    // folds to NULL compiles as written and keeps its string register.
    if (e.kind() != Expr::Kind::kLiteral && Foldable(e)) {
      const Value folded = e.Eval(Row{}, EvalContext{});
      if (!folded.is_null() || !StaticallyString(e)) {
        return EmitLiteral(folded);
      }
    }
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return EmitLiteral(static_cast<const LiteralExpr&>(e).value());
      case Expr::Kind::kColumnRef:
        return CompileColumnRef(static_cast<const ColumnRefExpr&>(e), depth);
      case Expr::Kind::kUnary:
        return CompileUnary(static_cast<const UnaryExpr&>(e), depth);
      case Expr::Kind::kBinary:
        return CompileBinary(static_cast<const BinaryExpr&>(e), depth);
      case Expr::Kind::kCall:
        return CompileCall(static_cast<const CallExpr&>(e), depth);
      case Expr::Kind::kAggLookup:
        return CompileAggLookup(static_cast<const AggLookupExpr&>(e), depth);
    }
    return Fail("unknown expression kind");
  }

  MaybeSlot CompileColumnRef(const ColumnRefExpr& ref, int depth) {
    if (lineage_ != nullptr &&
        static_cast<size_t>(ref.index()) < lineage_->size() &&
        (*lineage_)[ref.index()] != nullptr) {
      // An uncertain column is its lineage, in the main pass and in every
      // trial (the §6.2 lazy refresh): the stored value is the one of the
      // batch that produced the row.
      return CompileNode(*(*lineage_)[ref.index()], depth + 1);
    }
    if (ref.index() > prog_->max_col_) prog_->max_col_ = ref.index();
    const uint16_t col = static_cast<uint16_t>(ref.index());
    if (StaticallyString(ref)) {
      auto it = str_cols_.find(ref.index());
      if (it != str_cols_.end()) return Slot{Operand{it->second, true}, true};
      const int dst = NewStr();
      if (failed_) return std::nullopt;
      Emit(/*invariant=*/true,
           {Op::kLoadStr, 0, static_cast<uint16_t>(dst), 0, 0, col});
      str_cols_.emplace(ref.index(), static_cast<uint16_t>(dst));
      return Slot{Operand{static_cast<uint16_t>(dst), true}, true};
    }
    auto it = num_cols_.find(ref.index());
    if (it != num_cols_.end()) return Slot{Operand{it->second, false}, true};
    const int dst = NewNum();
    if (failed_) return std::nullopt;
    Emit(/*invariant=*/true,
         {Op::kLoadNum, 0, static_cast<uint16_t>(dst), 0, 0, col});
    num_cols_.emplace(ref.index(), static_cast<uint16_t>(dst));
    return Slot{Operand{static_cast<uint16_t>(dst), false}, true};
  }

  MaybeSlot CompileUnary(const UnaryExpr& unary, int depth) {
    if (StaticallyString(*unary.operand())) return Fail("string operand");
    auto sub = CompileNode(*unary.operand(), depth);
    if (!sub.has_value()) return std::nullopt;
    if (sub->out.is_str) return Fail("string operand");
    const int dst = NewNum();
    if (failed_) return std::nullopt;
    Emit(sub->invariant,
         {unary.op() == Expr::UnaryOp::kNeg ? Op::kNeg : Op::kNot, 0,
          static_cast<uint16_t>(dst), sub->out.reg, 0, 0});
    return Slot{Operand{static_cast<uint16_t>(dst), false}, sub->invariant};
  }

  MaybeSlot CompileBinary(const BinaryExpr& bin, int depth) {
    const Expr& l = *bin.left();
    const Expr& r = *bin.right();
    const bool ls = StaticallyString(l);
    const bool rs = StaticallyString(r);
    const bool cmp = IsComparison(bin.op());
    if (cmp && ls != rs) {
      // A string against a NULL-typed operand (ValidatePlan rejects a
      // number) is NULL: a NULL-typed expression reads NULL at run time,
      // and the null check precedes Value::Compare.
      if ((ls ? r : l).output_type() == ValueType::kNull) {
        return EmitLiteral(Value::Null());
      }
      return Fail("string/number comparison");
    }
    if (!cmp && (ls || rs)) {
      // Arithmetic/logic over a statically-string operand: ValidatePlan
      // rejects this.
      return Fail("string operand");
    }
    auto lslot = CompileNode(l, depth);
    if (!lslot.has_value()) return std::nullopt;
    auto rslot = CompileNode(r, depth);
    if (!rslot.has_value()) return std::nullopt;
    const bool invariant = lslot->invariant && rslot->invariant;
    const int dst = NewNum();
    if (failed_) return std::nullopt;
    Insn insn{Op::kArith, static_cast<uint8_t>(bin.op()),
              static_cast<uint16_t>(dst), lslot->out.reg, rslot->out.reg, 0};
    if (cmp) {
      insn.op = lslot->out.is_str ? Op::kCmpStr : Op::kCmpNum;
    } else if (bin.op() == Expr::BinaryOp::kAnd ||
               bin.op() == Expr::BinaryOp::kOr) {
      insn.op = Op::kLogic;
    } else if (bin.op() == Expr::BinaryOp::kMod) {
      insn.op = Op::kMod;
    } else {
      insn.aux = bin.output_type() == ValueType::kInt64 ? 1 : 0;
    }
    Emit(invariant, insn);
    return Slot{Operand{static_cast<uint16_t>(dst), false}, invariant};
  }

  // The binder checked the call against the function's signature; the
  // numeric form runs whenever every argument lands in a numeric register
  // and the static type is numeric.
  MaybeSlot CompileCall(const CallExpr& call, int depth) {
    // A NULL-typed call yields NULL whatever its arguments (CallBoxed).
    if (call.output_type() == ValueType::kNull) {
      return EmitLiteral(Value::Null());
    }
    const ScalarFunction* fn = &call.function();
    const bool dst_str = StaticallyString(call);
    std::vector<Operand> args;
    args.reserve(call.args().size());
    bool invariant = true;
    bool all_numeric = true;
    for (const auto& arg : call.args()) {
      auto slot = CompileNode(*arg, depth);
      if (!slot.has_value()) return std::nullopt;
      args.push_back(slot->out);
      invariant = invariant && slot->invariant;
      all_numeric = all_numeric && !slot->out.is_str;
    }
    if (prog_->max_call_args_ < args.size()) {
      prog_->max_call_args_ = args.size();
    }
    const uint16_t site = static_cast<uint16_t>(prog_->call_sites_.size());
    if (all_numeric && !dst_str && fn->numeric != nullptr) {
      const int dst = NewNum();
      if (failed_) return std::nullopt;
      prog_->call_sites_.push_back(
          {fn, std::move(args), 0, call.output_type()});
      Emit(invariant,
           {Op::kCallNum, 0, static_cast<uint16_t>(dst), 0, 0, site});
      return Slot{Operand{static_cast<uint16_t>(dst), false}, invariant};
    }
    // Generic call site: box the arguments, call the boxed form, unbox the
    // result into the register kind of the static type.
    uint16_t owned = 0;
    if (dst_str) {
      owned = static_cast<uint16_t>(next_owned_++);
    }
    const int dst = dst_str ? NewStr() : NewNum();
    if (failed_) return std::nullopt;
    prog_->call_sites_.push_back(
        {fn, std::move(args), owned, call.output_type()});
    Emit(invariant, {Op::kCallGeneric, static_cast<uint8_t>(dst_str),
                     static_cast<uint16_t>(dst), 0, 0, site});
    return Slot{Operand{static_cast<uint16_t>(dst), dst_str}, invariant};
  }

  MaybeSlot CompileAggLookup(const AggLookupExpr& lookup, int depth) {
    std::vector<Operand> keys;
    keys.reserve(lookup.key_exprs().size());
    for (const auto& key : lookup.key_exprs()) {
      auto slot = CompileNode(*key, depth);
      if (!slot.has_value()) return std::nullopt;
      // The hoisted probe evaluates keys once per row; a trial-variant key
      // (nested uncertainty) would need a probe per trial. ValidatePlan
      // rejects it.
      if (!slot->invariant) return Fail("trial-variant aggregate key");
      keys.push_back(slot->out);
    }
    const uint16_t site = static_cast<uint16_t>(prog_->agg_sites_.size());
    prog_->agg_sites_.push_back(
        {lookup.block_id(), lookup.agg_col(), std::move(keys)});
    Emit(/*invariant=*/true, {Op::kProbeAgg, 0, 0, 0, 0, site});
    const bool dst_str = StaticallyString(lookup);
    const int dst = dst_str ? NewStr() : NewNum();
    if (failed_) return std::nullopt;
    Emit(/*invariant=*/false,
         {dst_str ? Op::kReadAggStr : Op::kReadAggNum, 0,
          static_cast<uint16_t>(dst), 0, 0, site});
    return Slot{Operand{static_cast<uint16_t>(dst), dst_str}, false};
  }

  const std::vector<ExprPtr>* lineage_;
  std::unique_ptr<ExprProgram> prog_;
  bool failed_ = false;
  std::string refusal_;
  int next_num_ = 0;
  int next_str_ = 0;
  int next_owned_ = 0;
  // Common-subexpression reuse: by node identity (shared subtrees), by
  // column index, and by literal value.
  std::unordered_map<const Expr*, Slot> memo_;
  std::map<int, uint16_t> num_cols_;
  std::map<int, uint16_t> str_cols_;
  std::map<std::pair<int, uint64_t>, uint16_t> num_literals_;
  std::map<std::string, uint16_t> str_literals_;
};

std::unique_ptr<const ExprProgram> ExprProgram::Compile(
    const std::vector<ExprPtr>& roots,
    const std::vector<ExprPtr>* column_lineage, std::string* refusal) {
  ExprProgramCompiler compiler(column_lineage);
  for (const ExprPtr& root : roots) {
    if (!compiler.AddRoot(root)) break;
  }
  auto program = compiler.Finish();
  if (program == nullptr && refusal != nullptr) *refusal = compiler.refusal();
  return program;
}

ExprProgram::~ExprProgram() = default;

// ------------------------------------------------------------------ runtime

void ExprProgram::InitState(ExprProgramState* st) const {
  st->num_.assign(num_regs_, NumericValue{});
  st->str_.assign(str_regs_, StrReg{});
  st->keys_.assign(agg_sites_.size(), Row{});
  for (size_t i = 0; i < agg_sites_.size(); ++i) {
    st->keys_[i].reserve(agg_sites_[i].key_regs.size());
  }
  st->aggs_.assign(agg_sites_.size(), AggSlot{});
  // kCallGeneric trusts CallSite::owned_slot at run time (the hot loop does
  // not re-check it), so the owned pool must cover every slot any site
  // names, not just the compiler's owned_slots_ claim — a corrupted site
  // must never become an out-of-bounds write.
  size_t owned = owned_slots_;
  for (const CallSite& site : call_sites_) {
    owned = std::max(owned, static_cast<size_t>(site.owned_slot) + 1);
  }
  st->owned_.assign(owned, Value());
  st->num_args_.assign(max_call_args_, NumericValue{});
  st->val_args_.clear();
  st->val_args_.reserve(max_call_args_);
  for (const auto& [reg, value] : const_num_) st->num_[reg] = value;
  for (const auto& [reg, pool_idx] : const_str_) {
    st->str_[reg] = {const_str_pool_[pool_idx], false};
  }
  st->bound_trials_ = 0;
}

namespace {

inline Value BoxStr(const StrReg& r) {
  if (r.null) return Value::Null();
  return Value::String(std::string(r.s));
}

}  // namespace

void ExprProgram::RunSegment(const std::vector<Insn>& seg,
                             ExprProgramState* st, const Row& row,
                             const AggLookupResolver* resolver, int num_trials,
                             int trial) const {
  auto& num = st->num_;
  auto& str = st->str_;
  for (const Insn& insn : seg) {
    switch (insn.op) {
      case Op::kLoadNum:
        num[insn.dst] = LoadNum(row[insn.aux]);
        break;
      case Op::kLoadStr:
        LoadStr(&str[insn.dst], row[insn.aux]);
        break;
      case Op::kNeg:
        num[insn.dst] = NumericNeg(num[insn.a]);
        break;
      case Op::kNot: {
        const NumericValue s = num[insn.a];
        num[insn.dst] = s.is_null() ? NumericValue::Null()
                                    : NumericValue::Bool(!s.IsTruthy());
        break;
      }
      case Op::kArith:
        num[insn.dst] = NumericArith(static_cast<Expr::BinaryOp>(insn.sub),
                                     num[insn.a], num[insn.b], insn.aux != 0);
        break;
      case Op::kMod:
        num[insn.dst] = NumericMod(num[insn.a], num[insn.b]);
        break;
      case Op::kCmpNum: {
        const NumericValue& l = num[insn.a];
        const NumericValue& r = num[insn.b];
        num[insn.dst] =
            l.is_null() || r.is_null()
                ? NumericValue::Null()
                : NumericValue::Bool(ComparisonHolds(
                      static_cast<Expr::BinaryOp>(insn.sub), l.Compare(r)));
        break;
      }
      case Op::kCmpStr: {
        const StrReg& l = str[insn.a];
        const StrReg& r = str[insn.b];
        num[insn.dst] =
            l.null || r.null
                ? NumericValue::Null()
                : NumericValue::Bool(ComparisonHolds(
                      static_cast<Expr::BinaryOp>(insn.sub), l.s.compare(r.s)));
        break;
      }
      case Op::kLogic:
        num[insn.dst] =
            AndOr(static_cast<Expr::BinaryOp>(insn.sub) == Expr::BinaryOp::kAnd,
                  num[insn.a], num[insn.b]);
        break;
      case Op::kCallNum: {
        const CallSite& site = call_sites_[insn.aux];
        for (size_t i = 0; i < site.args.size(); ++i) {
          st->num_args_[i] = num[site.args[i].reg];
        }
        num[insn.dst] =
            site.fn->numeric(st->num_args_.data(), site.args.size());
        break;
      }
      case Op::kCallGeneric: {
        const CallSite& site = call_sites_[insn.aux];
        st->val_args_.clear();
        for (const Operand& arg : site.args) {
          st->val_args_.push_back(arg.is_str ? BoxStr(str[arg.reg])
                                             : num[arg.reg].ToValue());
        }
        // The register kind is the static type's, so CallBoxed leaves a
        // string for a string register, a number for a numeric one, or NULL.
        Value res = CallBoxed(*site.fn, st->val_args_.data(),
                              st->val_args_.size(), site.type);
        if (insn.sub != 0) {
          Value& slot = st->owned_[site.owned_slot];
          slot = std::move(res);
          LoadStr(&str[insn.dst], slot);
        } else {
          num[insn.dst] = NumericValue::Of(res);
        }
        break;
      }
      case Op::kProbeAgg: {
        assert(resolver != nullptr);
        const AggSite& site = agg_sites_[insn.aux];
        Row& key = st->keys_[insn.aux];
        key.clear();
        for (const Operand& k : site.key_regs) {
          key.push_back(k.is_str ? BoxStr(str[k.reg]) : num[k.reg].ToValue());
        }
        AggSlot& slot = st->aggs_[insn.aux];
        slot.main = resolver->Lookup(site.block_id, site.col, key);
        slot.trials.resize(static_cast<size_t>(num_trials));
        if (num_trials > 0) {
          resolver->LookupTrials(site.block_id, site.col, key, num_trials,
                                 slot.trials.data());
        }
        break;
      }
      case Op::kReadAggNum: {
        const AggSlot& slot = st->aggs_[insn.aux];
        num[insn.dst] = LoadNum(trial < 0 ? slot.main : slot.trials[trial]);
        break;
      }
      case Op::kReadAggStr: {
        const AggSlot& slot = st->aggs_[insn.aux];
        LoadStr(&str[insn.dst], trial < 0 ? slot.main : slot.trials[trial]);
        break;
      }
    }
  }
}

void ExprProgram::Bind(ExprProgramState* st, const Row& row,
                       const AggLookupResolver* resolver,
                       int num_trials) const {
  assert(max_col_ < 0 || static_cast<size_t>(max_col_) < row.size());
  st->bound_trials_ = num_trials;
  RunSegment(prologue_, st, row, resolver, num_trials, /*trial=*/-1);
}

void ExprProgram::EvalTrial(ExprProgramState* st, const Row& row,
                            int trial) const {
  assert(trial < st->bound_trials_);
  RunSegment(epilogue_, st, row, /*resolver=*/nullptr, 0, trial);
}

bool ExprProgram::EvalTrials(ExprProgramState* st, const Row& row,
                             int num_trials, int pred_root, int first_val_root,
                             size_t num_val_roots, double* w,
                             TrialArg* out_args) const {
  bool any = false;
  for (int t = 0; t < num_trials; ++t) {
    if (w[t] == 0.0) continue;
    EvalTrial(st, row, t);
    if (pred_root >= 0 && !RootTruthy(*st, static_cast<size_t>(pred_root))) {
      w[t] = 0.0;
      continue;
    }
    any = true;
    if (out_args == nullptr) continue;
    for (size_t a = 0; a < num_val_roots; ++a) {
      out_args[static_cast<size_t>(t) * num_val_roots + a] =
          RootArg(*st, static_cast<size_t>(first_val_root) + a);
    }
  }
  return any;
}

bool ExprProgram::RootTruthy(const ExprProgramState& st, size_t r) const {
  const Root& root = roots_[r];
  // Strings (and NULL) are never truthy — mirrors Value::IsTruthy.
  if (root.out.is_str) return false;
  return st.num_[root.out.reg].IsTruthy();
}

Value ExprProgram::RootValue(const ExprProgramState& st, size_t r) const {
  const Root& root = roots_[r];
  return root.out.is_str ? BoxStr(st.str_[root.out.reg])
                         : st.num_[root.out.reg].ToValue();
}

TrialArg ExprProgram::RootArg(const ExprProgramState& st, size_t r) const {
  const Root& root = roots_[r];
  if (root.out.is_str) {
    return {0.0, st.str_[root.out.reg].null ? ValueType::kNull
                                             : ValueType::kString};
  }
  const NumericValue& n = st.num_[root.out.reg];
  switch (n.tag) {
    case ValueType::kInt64:
      return {static_cast<double>(n.i64), ValueType::kInt64};
    case ValueType::kDouble:
      return {n.f64, ValueType::kDouble};
    default:
      return {};
  }
}

bool ExprProgram::root_trial_invariant(size_t r) const {
  return roots_[r].invariant;
}

// ------------------------------------------------------------ introspection

const char* ExprProgram::OpName(Op op) {
  switch (op) {
    case Op::kLoadNum:
      return "load_num";
    case Op::kLoadStr:
      return "load_str";
    case Op::kNeg:
      return "neg";
    case Op::kNot:
      return "not";
    case Op::kArith:
      return "arith";
    case Op::kMod:
      return "mod";
    case Op::kCmpNum:
      return "cmp_num";
    case Op::kCmpStr:
      return "cmp_str";
    case Op::kLogic:
      return "logic";
    case Op::kCallNum:
      return "call_num";
    case Op::kCallGeneric:
      return "call_generic";
    case Op::kProbeAgg:
      return "probe_agg";
    case Op::kReadAggNum:
      return "read_agg_num";
    case Op::kReadAggStr:
      return "read_agg_str";
  }
  return "invalid";
}

std::string ExprProgram::ToString() const {
  std::string out;
  auto dump = [&](const char* title, const std::vector<Insn>& seg) {
    out += title;
    out += ":\n";
    for (const Insn& insn : seg) {
      out += "  ";
      out += OpName(insn.op);
      out += " dst=" + std::to_string(insn.dst) +
             " a=" + std::to_string(insn.a) + " b=" + std::to_string(insn.b) +
             " sub=" + std::to_string(insn.sub) +
             " aux=" + std::to_string(insn.aux) + "\n";
    }
  };
  dump("prologue", prologue_);
  dump("epilogue", epilogue_);
  out += "roots:";
  for (const Root& root : roots_) {
    out += std::string(" ") + (root.out.is_str ? "s" : "n") +
           std::to_string(root.out.reg) + (root.invariant ? "!" : "~");
  }
  out += "\n";
  if (!const_num_.empty() || !const_str_.empty()) {
    out += "consts:";
    for (const auto& [reg, value] : const_num_) {
      out += " n" + std::to_string(reg) + "=";
      switch (value.tag) {
        case ValueType::kInt64:
          out += "i:" + std::to_string(value.i64);
          break;
        case ValueType::kDouble:
          out += "d:" + std::to_string(value.f64);
          break;
        default:
          out += "null";
          break;
      }
    }
    for (const auto& [reg, pool_idx] : const_str_) {
      out += " s" + std::to_string(reg) + "=\"" + const_str_pool_[pool_idx] +
             "\"";
    }
    out += "\n";
  }
  for (size_t i = 0; i < call_sites_.size(); ++i) {
    const CallSite& site = call_sites_[i];
    out += "call[" + std::to_string(i) +
           "]: " + (site.fn != nullptr ? site.fn->name : "?") + "(";
    for (size_t a = 0; a < site.args.size(); ++a) {
      if (a > 0) out += ",";
      out += (site.args[a].is_str ? "s" : "n") +
             std::to_string(site.args[a].reg);
    }
    out += ") owned_slot=" + std::to_string(site.owned_slot) + "\n";
  }
  for (size_t i = 0; i < agg_sites_.size(); ++i) {
    const AggSite& site = agg_sites_[i];
    out += "agg[" + std::to_string(i) +
           "]: block=" + std::to_string(site.block_id) +
           " col=" + std::to_string(site.col) + " keys=(";
    for (size_t k = 0; k < site.key_regs.size(); ++k) {
      if (k > 0) out += ",";
      out += (site.key_regs[k].is_str ? "s" : "n") +
             std::to_string(site.key_regs[k].reg);
    }
    out += ")\n";
  }
  out += "regs: num=" + std::to_string(num_regs_) +
         " str=" + std::to_string(str_regs_) +
         " owned=" + std::to_string(owned_slots_) +
         " max_col=" + std::to_string(max_col_) +
         " max_call_args=" + std::to_string(max_call_args_) + "\n";
  return out;
}

}  // namespace iolap
