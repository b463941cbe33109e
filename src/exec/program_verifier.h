#ifndef IOLAP_EXEC_PROGRAM_VERIFIER_H_
#define IOLAP_EXEC_PROGRAM_VERIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/expr.h"
#include "core/function_registry.h"
#include "exec/expr_program.h"

namespace iolap {

// Static bytecode verifier for compiled expression programs.
//
// ExprProgram (exec/expr_program.h) is the engine's only row evaluator: its
// dispatch loop indexes register files, call sites and aggregate slots
// without bounds checks, on the strength of invariants the compiler is
// supposed to establish. A miscompiled program silently corrupts every
// downstream value and confidence interval, and the reference checks of
// Theorem 1 (PAPER.md / DESIGN.md) would see it only on the queries they
// run.
//
// ProgramVerifier makes those invariants *proven* instead of assumed: an
// abstract-interpretation pass over the prologue and epilogue segments that
// accepts a program only if every execution — any row, any trial count —
// is memory-safe and trial-sound. The engine runs it as an always-on
// post-compile assertion (see CompileVerified below): a rejected program
// fails QueryController::Init with the rule's name, so a compiler bug stops
// the query instead of running it. docs/INTERNALS.md §10 describes the
// lattice.
//
// Soundness rules (rule ids match the diagnostics and INTERNALS.md §10):
//
//   def-before-use   every register is written (by a constant or a single
//                    instruction) before any instruction, call-site
//                    argument, probe key, or root reads it; segments are
//                    straight-line, so textual order is execution order.
//                    Programs are single-assignment: a second write to a
//                    register — in particular to a constant register, which
//                    InitState materializes only once per state — is
//                    rejected, because states are reused across rows and
//                    trials and a clobber leaks values between runs.
//   register-kind    operands live in the file (num/str) their opcode
//                    reads. Call sites read the function's Signature: the
//                    call passes an arity it admits; kCallNum needs a
//                    numeric form and takes numeric registers only;
//                    kCallGeneric never passes a string register to a
//                    numeric parameter and writes the file its static-kind
//                    discriminant claims; either form writes the file of
//                    the site's static type.
//   null-tag         the 3VL lattice is respected: kLogic's sub is AND/OR,
//                    kCmpNum/kCmpStr's sub is one of the six comparisons,
//                    kArith's sub is +,-,*,/ and its int-output flag is
//                    0/1; numeric constants carry a numeric tag (never
//                    kString) and int-tagged constants satisfy the
//                    NumericValue invariant f64 == double(i64) that
//                    AsDouble() relies on.
//   aux-bounds       every aux index lands inside call_sites_ / agg_sites_
//                    / the const pools; every register index is below the
//                    claimed file size; owned_slot is below owned_slots_;
//                    row loads stay at or below max_col_; no call site
//                    passes more arguments than max_call_args_ (the
//                    num_args_ scratch size).
//   trial-invariance kProbeAgg appears only in the prologue (the epilogue
//                    runs without a resolver) with its key registers
//                    defined; kReadAggNum/kReadAggStr appear only in the
//                    epilogue and only for sites the prologue probes;
//                    a root marked `invariant`
//                    reads a prologue-defined register, which — together
//                    with def-before-use — proves it transitively depends
//                    on prologue computation only.
//   register-file    the claimed file sizes are exact: every register in
//                    [0, num_regs_) / [0, str_regs_) is defined, max_col_
//                    and max_call_args_ equal the actual maxima, and every
//                    owned slot in [0, owned_slots_) belongs to exactly one
//                    string-kind generic call site (two sites sharing a
//                    slot would alias their owned Values and dangle the
//                    first result's string_view).

/// Outcome of one verification pass. `rule` is the stable rule id above
/// ("" when ok); `message` pinpoints the offending instruction/operand.
struct VerifyResult {
  bool ok = true;
  std::string rule;
  std::string message;
};

class ProgramVerifier {
 public:
  /// Proves the soundness rules above for `program`. Pure function of the
  /// program; runs in O(instructions + registers).
  static VerifyResult Verify(const ExprProgram& program);
};

/// Counters for the compile→verify seam, aggregated per block and summed
/// into QueryMetrics by the controller.
struct ProgramVerifierStats {
  /// Successful ExprProgram::Compile calls (programs that then faced the
  /// verifier).
  int compiled = 0;
  /// Compile() refusals (nullptr); the verifier never saw a program.
  int refused = 0;
  /// Programs the verifier (and, for engine blocks, the plan invariant
  /// prover) accepted.
  int verified = 0;
  /// Programs rejected after a successful compile — each one is a compiler
  /// bug.
  int rejected = 0;
  /// The rule of the last refusal and of the last rejection ("" if none).
  std::string last_refusal;
  std::string last_rejection;

  void RecordRejection(const std::string& rule, const std::string& message) {
    ++rejected;
    last_rejection = "[" + rule + "] " + message;
  }
};

/// The sanctioned way for engine code to obtain a compiled program: compile
/// `roots`, run the verifier, and return the program only if it is proven
/// sound. Returns nullptr on compile refusal *and* on verifier rejection,
/// recording either in `stats` (may be null) with its rule. The
/// verifier-bypass lint rule flags direct ExprProgram::Compile calls
/// outside this seam.
std::unique_ptr<const ExprProgram> CompileVerified(
    const std::vector<ExprPtr>& roots,
    const std::vector<ExprPtr>* column_lineage, ProgramVerifierStats* stats);

}  // namespace iolap

#endif  // IOLAP_EXEC_PROGRAM_VERIFIER_H_
