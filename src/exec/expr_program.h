#ifndef IOLAP_EXEC_EXPR_PROGRAM_H_
#define IOLAP_EXEC_EXPR_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/expr.h"
#include "core/function_registry.h"
#include "core/value.h"

namespace iolap {

// Compiled expression programs.
//
// ExprProgram lowers a set of bound Expr trees (typically one block's filter
// plus its aggregate argument expressions) into a flat, type-specialized
// register program: typed slots (int64/double with a null tag, string_view
// with a null bit), no virtual dispatch and no Value construction in the
// loop. Instructions are split into two straight-line segments by the
// trial-invariant hoisting rule (DependsOnUncertain):
//
//   prologue  — executed once per row by Bind(): everything that does not
//               depend on an uncertain aggregate, plus one batched resolver
//               probe per AggLookup site (key gather + LookupTrials).
//   epilogue  — executed once per trial by EvalTrial(): reads of the probed
//               per-trial replicas and the operators downstream of them.
//
// An uncertain column (one with a lineage expression) compiles to its
// lineage, in the main pass and in every trial, so a row's stored value of
// it is never read. Compilation refuses only what ValidatePlan rejects or
// no plan holds (a string/number mix in one operator, a trial-variant
// aggregate key, a lineage cycle, a full register file); Compile() then
// returns nullptr and names the rule. At run time the program trusts its
// input: rows fit their schema (Catalog::RegisterTable), and a boxed call's
// result or an aggregate replica that does not fit its static type reads as
// NULL, exactly as in Expr::Eval.
//
// A program is immutable after Compile() and shared read-only across
// threads; all mutable evaluation state lives in a per-thread
// ExprProgramState.

namespace expr_prog {

/// A string register: a view into the source row, the program's literal
/// pool, or a state-owned result slot — plus a null bit.
struct StrReg {
  std::string_view s;
  bool null = true;
};

/// Per-row result of one AggLookup site: the main (trial = -1) value and
/// the per-trial replicas, filled by the prologue's single resolver probe.
struct AggSlot {
  Value main;
  std::vector<Value> trials;
};

}  // namespace expr_prog

class ExprProgram;

/// Mutable per-thread scratch for one ExprProgram. Create one per
/// evaluation lane, initialize with ExprProgram::InitState, reuse across
/// rows. Never shared between threads.
class ExprProgramState {
 public:
  ExprProgramState() = default;

 private:
  friend class ExprProgram;

  std::vector<NumericValue> num_;
  std::vector<expr_prog::StrReg> str_;
  /// Reused key rows, one per AggLookup site.
  std::vector<Row> keys_;
  /// Probe results, one per AggLookup site.
  std::vector<expr_prog::AggSlot> aggs_;
  /// Owned results of generic (Value-boxed) calls whose static kind is
  /// string: the dst StrReg views into these.
  std::vector<Value> owned_;
  /// Scratch argument buffers for call sites.
  std::vector<NumericValue> num_args_;
  std::vector<Value> val_args_;
  int bound_trials_ = 0;
};

/// An immutable compiled multi-root expression program. See file comment.
class ExprProgram {
 public:
  /// Compiles `roots` against a shared register file (common subexpressions
  /// across roots are evaluated once). `column_lineage` mirrors
  /// EvalContext::column_lineage: a column with a non-null entry compiles
  /// to its lineage. Returns nullptr if a root holds a construct the
  /// compiler refuses (see the file comment), with the rule in `refusal`
  /// when it is non-null.
  static std::unique_ptr<const ExprProgram> Compile(
      const std::vector<ExprPtr>& roots,
      const std::vector<ExprPtr>* column_lineage,
      std::string* refusal = nullptr);

  ~ExprProgram();

  /// Sizes the register file and materializes literal constants.
  void InitState(ExprProgramState* state) const;

  /// Runs the prologue for `row`: trial-invariant subexpressions, plus one
  /// Lookup (and, for num_trials > 0, one LookupTrials covering trials
  /// [0, num_trials)) per AggLookup site. `row` must hold at least
  /// max_col() + 1 columns. `resolver` may be null only for programs with
  /// no AggLookup site.
  void Bind(ExprProgramState* state, const Row& row,
            const AggLookupResolver* resolver, int num_trials) const;

  /// Runs the epilogue for one trial (trial = -1 selects the main,
  /// non-bootstrap evaluation, exactly like EvalContext::trial). Requires a
  /// Bind() of the same row, with trial < its num_trials.
  void EvalTrial(ExprProgramState* state, const Row& row, int trial) const;

  /// Batched per-trial evaluation of the engine's hot loop. For every trial
  /// t in [0, num_trials) with w[t] != 0: runs the epilogue, zeroes w[t] if
  /// root `pred_root` is not truthy (pass pred_root = -1 for no filter),
  /// otherwise, when `out_args` is not null, stores roots [first_val_root,
  /// first_val_root + num_val_roots), unboxed (RootArg), into
  /// out_args[t * num_val_roots + a]. The delta engine passes `out_args`
  /// only where an aggregate argument reads an uncertain value; elsewhere
  /// every trial folds the main pass's arguments. Returns true when some
  /// w[t] is nonzero afterwards.
  bool EvalTrials(ExprProgramState* state, const Row& row, int num_trials,
                  int pred_root, int first_val_root, size_t num_val_roots,
                  double* w, TrialArg* out_args) const;

  /// Result of root `r` after Bind (invariant roots) / EvalTrial.
  bool RootTruthy(const ExprProgramState& state, size_t r) const;
  Value RootValue(const ExprProgramState& state, size_t r) const;

  size_t num_roots() const { return roots_.size(); }
  /// True if root `r` is fully trial-invariant (decided by the prologue).
  bool root_trial_invariant(size_t r) const;

  // Introspection (tests, docs, benchmarks).
  size_t prologue_size() const { return prologue_.size(); }
  size_t epilogue_size() const { return epilogue_.size(); }
  size_t num_agg_sites() const { return agg_sites_.size(); }
  size_t num_call_sites() const { return call_sites_.size(); }
  std::string ToString() const;

  /// True if root `r` lives in the string register file. The plan invariant
  /// prover (plan/plan_verifier.h) checks this against the plan's static
  /// output types.
  bool root_is_string(size_t r) const { return roots_[r].out.is_str; }

  /// Plan-facing view of one aggregate probe site, for cross-checking
  /// against the source block's schema without exposing register details.
  struct AggSiteView {
    int block_id = 0;
    /// Index into the source block's output schema (group keys first, then
    /// aggregates — AggregateRegistry::Lookup's column convention).
    int col = 0;
    size_t num_keys = 0;
  };
  AggSiteView agg_site_view(size_t i) const {
    return {agg_sites_[i].block_id, agg_sites_[i].col,
            agg_sites_[i].key_regs.size()};
  }

  /// Highest row column any kLoad* touches (-1 = no loads).
  int max_col() const { return max_col_; }

 private:
  /// TrialArg::Of(RootValue(state, r)), without boxing.
  TrialArg RootArg(const ExprProgramState& state, size_t r) const;

  friend class ExprProgramCompiler;
  /// The static bytecode verifier (exec/program_verifier.h) walks the raw
  /// instruction streams; tests corrupt them through the peer to prove the
  /// verifier rejects every mutation class.
  friend class ProgramVerifier;
  friend class ExprProgramTestPeer;

  enum class Op : uint8_t {
    kLoadNum,     // dst.num = row[aux]
    kLoadStr,     // dst.str = row[aux]
    kNeg,         // dst.num = -num[a] (runtime-typed, like UnaryExpr)
    kNot,         // dst.num = 3VL NOT num[a]
    kArith,       // dst.num = num[a] <sub> num[b]; aux = int64-output flag
    kMod,         // dst.num = NumericMod(num[a], num[b])
    kCmpNum,      // dst.num = num[a] <sub> num[b] as 0/1/NULL
    kCmpStr,      // dst.num = str[a] <sub> str[b] as 0/1/NULL
    kLogic,       // dst.num = 3VL AND/OR of num[a], num[b]
    kCallNum,     // dst.num = numeric form of call_sites_[aux]
    kCallGeneric, // dst = boxed form of call_sites_[aux] (CallBoxed)
    kProbeAgg,    // gather keys, Lookup + LookupTrials into aggs_[aux]
    kReadAggNum,  // dst.num = agg slot value for this trial; NULL on string
    kReadAggStr,  // dst.str = agg slot value for this trial; NULL on number
  };

  struct Insn {
    Op op;
    uint8_t sub = 0;  // BinaryOp / UnaryOp discriminant where applicable
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t aux = 0;
  };

  /// A register operand: index + which file it lives in.
  struct Operand {
    uint16_t reg = 0;
    bool is_str = false;
  };

  struct CallSite {
    const ScalarFunction* fn = nullptr;
    std::vector<Operand> args;
    /// kCallGeneric with string static kind: index of the state-owned
    /// Value slot the dst view points into.
    uint16_t owned_slot = 0;
    /// The call's static type: CallBoxed nulls a result that does not fit.
    ValueType type = ValueType::kDouble;
  };

  struct AggSite {
    int block_id = 0;
    int col = 0;
    std::vector<Operand> key_regs;
  };

  struct Root {
    Operand out;
    bool invariant = false;
  };

  ExprProgram() = default;

  /// The mnemonic of `op` in ToString and verifier diagnostics.
  static const char* OpName(Op op);

  void RunSegment(const std::vector<Insn>& seg, ExprProgramState* st,
                  const Row& row, const AggLookupResolver* resolver,
                  int num_trials, int trial) const;

  std::vector<Insn> prologue_;
  std::vector<Insn> epilogue_;
  std::vector<CallSite> call_sites_;
  std::vector<AggSite> agg_sites_;
  std::vector<Root> roots_;
  /// Literal constants, materialized into fresh states by InitState.
  std::vector<std::pair<uint16_t, NumericValue>> const_num_;
  /// String literals: (register, index into const_str_pool_).
  std::vector<std::pair<uint16_t, uint32_t>> const_str_;
  std::vector<std::string> const_str_pool_;
  uint16_t num_regs_ = 0;
  uint16_t str_regs_ = 0;
  uint16_t owned_slots_ = 0;
  /// Highest row index any kLoad* touches.
  int max_col_ = -1;
  size_t max_call_args_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_EXPR_PROGRAM_H_
