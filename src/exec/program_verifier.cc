#include "exec/program_verifier.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace iolap {

namespace {

const char* kDefBeforeUse = "def-before-use";
const char* kRegisterKind = "register-kind";
const char* kNullTag = "null-tag";
const char* kAuxBounds = "aux-bounds";
const char* kTrialInvariance = "trial-invariance";
const char* kRegisterFile = "register-file";
const char* kOpcode = "opcode";

/// Where a register (or agg slot) got its single definition. Segments are
/// straight-line and SSA by construction, so one level per register is the
/// whole dataflow story.
enum class Def : uint8_t { kUndef = 0, kConst, kPrologue, kEpilogue };

}  // namespace

VerifyResult ProgramVerifier::Verify(const ExprProgram& p) {
  using Op = ExprProgram::Op;
  using Insn = ExprProgram::Insn;
  using Operand = ExprProgram::Operand;
  using BinOp = Expr::BinaryOp;

  VerifyResult res;
  // All checks funnel through fail(): first violation wins, walk stops.
  auto fail = [&res](const char* rule, const std::string& msg) {
    res.ok = false;
    res.rule = rule;
    res.message = msg;
    return false;
  };

  auto op_name = [](Op op) -> const char* {
    switch (op) {
      case Op::kLoadNum:
        return "load_num";
      case Op::kLoadStr:
        return "load_str";
      case Op::kColLineage:
        return "col_lineage";
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
  };

  // Abstract state: one definition level per register / agg slot, plus the
  // exactness maxima re-derived from the instruction streams.
  std::vector<Def> num_def(p.num_regs_, Def::kUndef);
  std::vector<Def> str_def(p.str_regs_, Def::kUndef);
  std::vector<Def> agg_def(p.agg_sites_.size(), Def::kUndef);
  // Which string-kind generic call site claims each owned slot; two sites
  // sharing a slot would alias their owned Values (a later call frees the
  // string an earlier dst register still views).
  std::vector<int> owned_owner(p.owned_slots_, -1);
  int max_col_seen = -1;
  size_t max_args_seen = 0;

  // ---------------------------------------------------------- const pools
  for (const auto& [reg, value] : p.const_num_) {
    if (reg >= p.num_regs_) {
      return fail(kAuxBounds, "numeric constant register n" +
                                  std::to_string(reg) + " >= num_regs_ " +
                                  std::to_string(p.num_regs_)),
             res;
    }
    if (num_def[reg] != Def::kUndef) {
      return fail(kDefBeforeUse, "numeric constant register n" +
                                     std::to_string(reg) + " defined twice"),
             res;
    }
    if (value.tag == ValueType::kString) {
      return fail(kNullTag, "numeric constant n" + std::to_string(reg) +
                                " carries a string tag"),
             res;
    }
    if (value.tag == ValueType::kInt64 &&
        value.f64 != static_cast<double>(value.i64)) {
      return fail(kNullTag,
                  "int constant n" + std::to_string(reg) +
                      " violates the invariant f64 == double(i64)"),
             res;
    }
    num_def[reg] = Def::kConst;
  }
  for (const auto& [reg, pool_idx] : p.const_str_) {
    if (reg >= p.str_regs_) {
      return fail(kAuxBounds, "string constant register s" +
                                  std::to_string(reg) + " >= str_regs_ " +
                                  std::to_string(p.str_regs_)),
             res;
    }
    if (pool_idx >= p.const_str_pool_.size()) {
      return fail(kAuxBounds, "string constant s" + std::to_string(reg) +
                                  " points past the literal pool"),
             res;
    }
    if (str_def[reg] != Def::kUndef) {
      return fail(kDefBeforeUse, "string constant register s" +
                                     std::to_string(reg) + " defined twice"),
             res;
    }
    str_def[reg] = Def::kConst;
  }

  // ------------------------------------------------------ segment walkers
  // `at` names the instruction under scrutiny in every diagnostic.
  std::string at;
  auto use_num = [&](uint16_t reg) {
    if (reg >= p.num_regs_) {
      return fail(kAuxBounds, at + ": reads n" + std::to_string(reg) +
                                  " >= num_regs_ " +
                                  std::to_string(p.num_regs_));
    }
    if (num_def[reg] == Def::kUndef) {
      return fail(kDefBeforeUse,
                  at + ": reads n" + std::to_string(reg) + " before any def");
    }
    return true;
  };
  auto use_str = [&](uint16_t reg) {
    if (reg >= p.str_regs_) {
      return fail(kAuxBounds, at + ": reads s" + std::to_string(reg) +
                                  " >= str_regs_ " +
                                  std::to_string(p.str_regs_));
    }
    if (str_def[reg] == Def::kUndef) {
      return fail(kDefBeforeUse,
                  at + ": reads s" + std::to_string(reg) + " before any def");
    }
    return true;
  };
  auto def_num = [&](uint16_t reg, Def level) {
    if (reg >= p.num_regs_) {
      return fail(kAuxBounds, at + ": writes n" + std::to_string(reg) +
                                  " >= num_regs_ " +
                                  std::to_string(p.num_regs_));
    }
    if (num_def[reg] != Def::kUndef) {
      return fail(kDefBeforeUse, at + ": second write to n" +
                                     std::to_string(reg) +
                                     " (programs are single-assignment)");
    }
    num_def[reg] = level;
    return true;
  };
  auto def_str = [&](uint16_t reg, Def level) {
    if (reg >= p.str_regs_) {
      return fail(kAuxBounds, at + ": writes s" + std::to_string(reg) +
                                  " >= str_regs_ " +
                                  std::to_string(p.str_regs_));
    }
    if (str_def[reg] != Def::kUndef) {
      return fail(kDefBeforeUse, at + ": second write to s" +
                                     std::to_string(reg) +
                                     " (programs are single-assignment)");
    }
    str_def[reg] = level;
    return true;
  };
  auto use_row_col = [&](uint16_t col) {
    if (static_cast<int>(col) > p.max_col_) {
      return fail(kAuxBounds, at + ": loads row column " +
                                  std::to_string(col) +
                                  " beyond declared max_col_ " +
                                  std::to_string(p.max_col_));
    }
    max_col_seen = std::max(max_col_seen, static_cast<int>(col));
    return true;
  };
  auto is_cmp_sub = [](uint8_t sub) {
    const auto op = static_cast<BinOp>(sub);
    return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
           op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
  };

  auto walk = [&](const std::vector<Insn>& seg, Def level,
                  const char* seg_name) {
    for (size_t i = 0; i < seg.size(); ++i) {
      const Insn& insn = seg[i];
      if (static_cast<uint8_t>(insn.op) >
          static_cast<uint8_t>(Op::kReadAggStr)) {
        return fail(kOpcode,
                    std::string(seg_name) + "[" + std::to_string(i) +
                        "]: invalid opcode byte " +
                        std::to_string(static_cast<uint8_t>(insn.op)));
      }
      at = std::string(seg_name) + "[" + std::to_string(i) + "] " +
           op_name(insn.op);
      switch (insn.op) {
        case Op::kLoadNum:
          if (!use_row_col(insn.aux)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        case Op::kLoadStr:
          if (!use_row_col(insn.aux)) return false;
          if (!def_str(insn.dst, level)) return false;
          break;
        case Op::kColLineage:
          // Lineage columns are trial-variant by definition: hoisting one
          // into the prologue would freeze every trial to the row value.
          if (level != Def::kEpilogue) {
            return fail(kTrialInvariance,
                        at + ": col_lineage in the prologue");
          }
          if (!use_row_col(insn.aux)) return false;
          if (!use_num(insn.a)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        case Op::kNeg:
        case Op::kNot:
          if (!use_num(insn.a)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        case Op::kArith: {
          const auto sub = static_cast<BinOp>(insn.sub);
          if (sub != BinOp::kAdd && sub != BinOp::kSub && sub != BinOp::kMul &&
              sub != BinOp::kDiv) {
            return fail(kNullTag, at + ": arithmetic discriminant " +
                                      std::to_string(insn.sub) +
                                      " is not one of +,-,*,/");
          }
          if (insn.aux > 1) {
            return fail(kNullTag, at + ": int-output flag " +
                                      std::to_string(insn.aux) +
                                      " is not 0/1");
          }
          if (!use_num(insn.a) || !use_num(insn.b)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        }
        case Op::kMod:
          if (!use_num(insn.a) || !use_num(insn.b)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        case Op::kCmpNum:
          if (!is_cmp_sub(insn.sub)) {
            return fail(kNullTag, at + ": comparison discriminant " +
                                      std::to_string(insn.sub) +
                                      " is not a comparison");
          }
          if (!use_num(insn.a) || !use_num(insn.b)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        case Op::kCmpStr:
          if (!is_cmp_sub(insn.sub)) {
            return fail(kNullTag, at + ": comparison discriminant " +
                                      std::to_string(insn.sub) +
                                      " is not a comparison");
          }
          if (!use_str(insn.a) || !use_str(insn.b)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        case Op::kLogic: {
          const auto sub = static_cast<BinOp>(insn.sub);
          if (sub != BinOp::kAnd && sub != BinOp::kOr) {
            return fail(kNullTag, at + ": 3VL discriminant " +
                                      std::to_string(insn.sub) +
                                      " is not AND/OR");
          }
          if (!use_num(insn.a) || !use_num(insn.b)) return false;
          if (!def_num(insn.dst, level)) return false;
          break;
        }
        case Op::kCallNum:
        case Op::kCallGeneric: {
          if (insn.aux >= p.call_sites_.size()) {
            return fail(kAuxBounds, at + ": call site " +
                                        std::to_string(insn.aux) +
                                        " out of bounds");
          }
          const auto& site = p.call_sites_[insn.aux];
          const bool numeric_form = insn.op == Op::kCallNum;
          if (!numeric_form && insn.sub > 1) {
            return fail(kRegisterKind, at + ": static-kind discriminant " +
                                           std::to_string(insn.sub) +
                                           " is not 0/1");
          }
          // The function's signature decides what the call may pass: an
          // arity it admits, and no string register into the numeric form
          // or into a numeric parameter of the boxed form.
          if (site.fn == nullptr ||
              (numeric_form ? site.fn->numeric == nullptr
                            : site.fn->boxed == nullptr)) {
            return fail(kRegisterKind,
                        at + ": call site " + std::to_string(insn.aux) +
                            " has no " + (numeric_form ? "numeric" : "boxed") +
                            " form");
          }
          const Signature& sig = site.fn->signature;
          if (!sig.AcceptsArity(site.args.size())) {
            return fail(kRegisterKind,
                        at + ": " + std::to_string(site.args.size()) +
                            " args do not fit the signature of " +
                            site.fn->name);
          }
          if (site.args.size() > p.max_call_args_) {
            return fail(kAuxBounds,
                        at + ": " + std::to_string(site.args.size()) +
                            " args exceed max_call_args_ (" +
                            std::to_string(p.max_call_args_) + ")");
          }
          for (size_t a = 0; a < site.args.size(); ++a) {
            const Operand& arg = site.args[a];
            if (arg.is_str &&
                (numeric_form || !sig.Accepts(a, ValueType::kString))) {
              return fail(kRegisterKind,
                          at + ": string argument s" +
                              std::to_string(arg.reg) + " into a numeric " +
                              (numeric_form ? "form" : "parameter"));
            }
            if (arg.is_str ? !use_str(arg.reg) : !use_num(arg.reg)) {
              return false;
            }
          }
          max_args_seen = std::max(max_args_seen, site.args.size());
          if (numeric_form || insn.sub == 0) {
            if (!def_num(insn.dst, level)) return false;
            break;
          }
          if (site.owned_slot >= p.owned_slots_) {
            return fail(kAuxBounds, at + ": owned_slot " +
                                        std::to_string(site.owned_slot) +
                                        " >= owned_slots_ " +
                                        std::to_string(p.owned_slots_));
          }
          int& owner = owned_owner[site.owned_slot];
          if (owner >= 0 && owner != static_cast<int>(insn.aux)) {
            return fail(kRegisterFile,
                        at + ": owned slot " +
                            std::to_string(site.owned_slot) +
                            " shared by call sites " + std::to_string(owner) +
                            " and " + std::to_string(insn.aux) +
                            " (aliased string storage)");
          }
          owner = static_cast<int>(insn.aux);
          if (!def_str(insn.dst, level)) return false;
          break;
        }
        case Op::kProbeAgg: {
          // The epilogue runs with resolver == nullptr; a probe there is a
          // guaranteed crash, and per-trial probing would break the one-
          // batched-lookup contract anyway.
          if (level != Def::kPrologue) {
            return fail(kTrialInvariance, at + ": probe outside the prologue");
          }
          if (insn.aux >= p.agg_sites_.size()) {
            return fail(kAuxBounds, at + ": agg site " +
                                        std::to_string(insn.aux) +
                                        " out of bounds");
          }
          if (agg_def[insn.aux] != Def::kUndef) {
            return fail(kDefBeforeUse, at + ": agg site " +
                                           std::to_string(insn.aux) +
                                           " probed twice");
          }
          for (const Operand& k : p.agg_sites_[insn.aux].key_regs) {
            // Key liveness at probe time: every key register must already
            // hold this row's value when the single batched probe fires.
            if (k.is_str ? !use_str(k.reg) : !use_num(k.reg)) return false;
          }
          agg_def[insn.aux] = level;
          break;
        }
        case Op::kReadAggNum:
        case Op::kReadAggStr: {
          // Reads select the per-trial replica: in the prologue they would
          // freeze trial -1's value for every trial.
          if (level != Def::kEpilogue) {
            return fail(kTrialInvariance,
                        at + ": per-trial read in the prologue");
          }
          if (insn.aux >= p.agg_sites_.size()) {
            return fail(kAuxBounds, at + ": agg site " +
                                        std::to_string(insn.aux) +
                                        " out of bounds");
          }
          if (agg_def[insn.aux] == Def::kUndef) {
            return fail(kDefBeforeUse, at + ": reads agg site " +
                                           std::to_string(insn.aux) +
                                           " that no probe fills");
          }
          if (insn.op == Op::kReadAggNum) {
            if (!def_num(insn.dst, level)) return false;
          } else {
            if (!def_str(insn.dst, level)) return false;
          }
          break;
        }
      }
    }
    return true;
  };

  if (!walk(p.prologue_, Def::kPrologue, "prologue")) return res;
  if (!walk(p.epilogue_, Def::kEpilogue, "epilogue")) return res;

  // ----------------------------------------------------------------- roots
  for (size_t r = 0; r < p.roots_.size(); ++r) {
    const auto& root = p.roots_[r];
    at = "root[" + std::to_string(r) + "]";
    const Def def = root.out.is_str
                        ? (root.out.reg < p.str_regs_ ? str_def[root.out.reg]
                                                      : Def::kUndef)
                        : (root.out.reg < p.num_regs_ ? num_def[root.out.reg]
                                                      : Def::kUndef);
    if (root.out.is_str ? root.out.reg >= p.str_regs_
                        : root.out.reg >= p.num_regs_) {
      return fail(kAuxBounds, at + ": register " +
                                  std::to_string(root.out.reg) +
                                  " out of bounds"),
             res;
    }
    if (def == Def::kUndef) {
      return fail(kDefBeforeUse, at + ": register never defined"), res;
    }
    // Rule (d): an invariant root is read after Bind() alone, before any
    // epilogue runs — and single-assignment means a prologue def is the
    // value for every trial. Transitive prologue-only dependence follows
    // from def-before-use inside the prologue walk.
    if (root.invariant && def == Def::kEpilogue) {
      return fail(kTrialInvariance,
                  at + ": marked invariant but defined in the epilogue"),
             res;
    }
  }

  // ----------------------------------------- register-file exactness (e)
  for (uint16_t i = 0; i < p.num_regs_; ++i) {
    if (num_def[i] == Def::kUndef) {
      return fail(kRegisterFile, "num_regs_ claims " +
                                     std::to_string(p.num_regs_) + " but n" +
                                     std::to_string(i) + " is never defined"),
             res;
    }
  }
  for (uint16_t i = 0; i < p.str_regs_; ++i) {
    if (str_def[i] == Def::kUndef) {
      return fail(kRegisterFile, "str_regs_ claims " +
                                     std::to_string(p.str_regs_) + " but s" +
                                     std::to_string(i) + " is never defined"),
             res;
    }
  }
  for (size_t i = 0; i < p.agg_sites_.size(); ++i) {
    if (agg_def[i] == Def::kUndef) {
      return fail(kRegisterFile,
                  "agg site " + std::to_string(i) + " is never probed"),
             res;
    }
  }
  for (uint16_t i = 0; i < p.owned_slots_; ++i) {
    if (owned_owner[i] < 0) {
      return fail(kRegisterFile, "owned_slots_ claims " +
                                     std::to_string(p.owned_slots_) +
                                     " but slot " + std::to_string(i) +
                                     " has no owning call site"),
             res;
    }
  }
  if (max_col_seen != p.max_col_) {
    return fail(kRegisterFile,
                "max_col_ claims " + std::to_string(p.max_col_) +
                    " but the highest load touches column " +
                    std::to_string(max_col_seen)),
           res;
  }
  if (max_args_seen != p.max_call_args_) {
    return fail(kRegisterFile,
                "max_call_args_ claims " + std::to_string(p.max_call_args_) +
                    " but the widest call passes " +
                    std::to_string(max_args_seen)),
           res;
  }

  return res;
}

std::unique_ptr<const ExprProgram> CompileVerified(
    const std::vector<ExprPtr>& roots,
    const std::vector<ExprPtr>* column_lineage, ProgramVerifierStats* stats) {
  auto program = ExprProgram::Compile(roots, column_lineage);
  if (program == nullptr) {
    // The compiler kept the interpreter on its own — not a verifier event.
    if (stats != nullptr) ++stats->refused;
    return nullptr;
  }
  if (stats != nullptr) ++stats->compiled;
  const VerifyResult vr = ProgramVerifier::Verify(*program);
  if (!vr.ok) {
    if (stats != nullptr) stats->RecordRejection(vr.rule, vr.message);
    return nullptr;
  }
  if (stats != nullptr) ++stats->verified;
  return program;
}

}  // namespace iolap
