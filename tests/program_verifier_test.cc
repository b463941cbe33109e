// Tests of the static program verifier (exec/program_verifier) and the plan
// invariant prover (plan/plan_verifier):
//
//   * ToString golden tests pinning the disassembly of every opcode, so the
//     bytecode shape (and therefore what the verifier certifies) is visible
//     in the diff whenever the compiler changes.
//   * A directed mutation suite: every rule class (a)-(e) of the verifier's
//     contract has mutations that must be rejected with that rule's
//     diagnostic. Mutations corrupt a freshly compiled program through
//     ExprProgramTestPeer (a friend), exactly the way a compiler bug would.
//   * A field-flip sweep: every accepted mutant must also *run* without
//     faulting (the suite runs under ASan in CI), making "verifier accepts"
//     mean "safe to execute", not merely "looks plausible".
//   * Plan-level agreement checks between compiled programs and hand-built
//     plans (root arity/kind, SPJ bounds, aggregate probe shape).
//   * A workload corpus gate: every program the TPC-H and Conviva queries
//     compile must verify, with zero rejections.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/expr.h"
#include "core/function_registry.h"
#include "core/schema.h"
#include "core/value.h"
#include "exec/expr_program.h"
#include "exec/program_verifier.h"
#include "iolap/delta_engine.h"
#include "iolap/session.h"
#include "plan/logical_plan.h"
#include "plan/plan_verifier.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {

/// Test-only access to ExprProgram's private bytecode (a declared friend).
/// The mutation suite corrupts compiled programs through these references to
/// prove the verifier rejects every corruption class a compiler bug could
/// introduce.
class ExprProgramTestPeer {
 public:
  using Insn = ExprProgram::Insn;
  using CallSite = ExprProgram::CallSite;
  using AggSite = ExprProgram::AggSite;
  using Root = ExprProgram::Root;

  static std::vector<Insn>& Prologue(const ExprProgram& p) {
    return Mut(p).prologue_;
  }
  static std::vector<Insn>& Epilogue(const ExprProgram& p) {
    return Mut(p).epilogue_;
  }
  static std::vector<CallSite>& CallSites(const ExprProgram& p) {
    return Mut(p).call_sites_;
  }
  static std::vector<AggSite>& AggSites(const ExprProgram& p) {
    return Mut(p).agg_sites_;
  }
  static std::vector<Root>& Roots(const ExprProgram& p) {
    return Mut(p).roots_;
  }
  static std::vector<std::pair<uint16_t, NumericValue>>& ConstNum(
      const ExprProgram& p) {
    return Mut(p).const_num_;
  }
  static uint16_t& NumRegs(const ExprProgram& p) { return Mut(p).num_regs_; }
  static uint16_t& StrRegs(const ExprProgram& p) { return Mut(p).str_regs_; }
  static uint16_t& OwnedSlots(const ExprProgram& p) {
    return Mut(p).owned_slots_;
  }
  static int& MaxCol(const ExprProgram& p) { return Mut(p).max_col_; }
  static size_t& MaxCallArgs(const ExprProgram& p) {
    return Mut(p).max_call_args_;
  }

  static uint8_t OpByte(const Insn& insn) {
    return static_cast<uint8_t>(insn.op);
  }
  static void SetOpByte(Insn& insn, uint8_t byte) {
    insn.op = static_cast<ExprProgram::Op>(byte);
  }

 private:
  static ExprProgram& Mut(const ExprProgram& p) {
    return const_cast<ExprProgram&>(p);
  }
};

namespace {

using Peer = ExprProgramTestPeer;

// ---------------------------------------------------------------------------
// Expression helpers (same shapes as expr_program_test).

ExprPtr LitV(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Col(int index, ValueType type) {
  return std::make_shared<ColumnRefExpr>(index, "c" + std::to_string(index),
                                         type);
}
ExprPtr Bin(Expr::BinaryOp op, ExprPtr l, ExprPtr r,
            ValueType type = ValueType::kDouble) {
  return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r), type);
}
ExprPtr Un(Expr::UnaryOp op, ExprPtr e, ValueType type = ValueType::kDouble) {
  return std::make_shared<UnaryExpr>(op, std::move(e), type);
}
ExprPtr Call(const std::string& name, std::vector<ExprPtr> args,
             ValueType type = ValueType::kDouble) {
  static const std::shared_ptr<FunctionRegistry> functions =
      FunctionRegistry::Default();
  return std::make_shared<CallExpr>(*functions->FindScalar(name),
                                    std::move(args), type);
}
ExprPtr AggRef(int block, int col, std::vector<ExprPtr> keys,
               ValueType type = ValueType::kDouble) {
  return std::make_shared<AggLookupExpr>(block, col, std::move(keys), type,
                                         "agg");
}

/// Deterministic resolver so mutated-but-accepted programs can actually run.
class SimpleResolver final : public AggLookupResolver {
 public:
  Value Lookup(int block_id, int col, const Row& key) const override {
    return Value::Double(Base(block_id, col, key));
  }
  Value LookupTrial(int block_id, int col, const Row& key,
                    int trial) const override {
    return Value::Double(Base(block_id, col, key) + 0.01 * trial);
  }
  void LookupTrials(int block_id, int col, const Row& key, int num_trials,
                    Value* out) const override {
    for (int t = 0; t < num_trials; ++t) {
      out[t] = LookupTrial(block_id, col, key, t);
    }
  }
  Interval LookupRange(int, int, const Row&) const override {
    return Interval::Unbounded();
  }

 private:
  static double Base(int block_id, int col, const Row& key) {
    double h = 7.0 * block_id + 3.0 * col;
    for (const Value& v : key) h += v.is_null() ? 0.5 : v.AsDouble();
    return h;
  }
};

/// A program plus the lineage it borrows, so mutation tests can recompile a
/// pristine copy per mutation.
struct Built {
  std::vector<ExprPtr> lineage;
  std::vector<ExprPtr> roots;

  std::unique_ptr<const ExprProgram> Compile() const {
    auto p = ExprProgram::Compile(roots, lineage.empty() ? nullptr : &lineage);
    EXPECT_NE(p, nullptr);
    return p;
  }
};

// Numeric kitchen sink: load_num, arith, mod, cmp_num, logic, not, neg.
Built NumericProgram() {
  Built b;
  b.roots = {
      Bin(Expr::BinaryOp::kAdd, Col(0, ValueType::kInt64),
          Col(1, ValueType::kDouble), ValueType::kDouble),
      Bin(Expr::BinaryOp::kMod, Col(0, ValueType::kInt64),
          LitV(Value::Int64(3)), ValueType::kInt64),
      Un(Expr::UnaryOp::kNot,
         Bin(Expr::BinaryOp::kAnd,
             Bin(Expr::BinaryOp::kLt, Col(0, ValueType::kInt64),
                 Col(1, ValueType::kDouble), ValueType::kInt64),
             Bin(Expr::BinaryOp::kGe, Col(1, ValueType::kDouble),
                 LitV(Value::Double(1.5)), ValueType::kInt64),
             ValueType::kInt64),
         ValueType::kInt64),
      Un(Expr::UnaryOp::kNeg, Col(1, ValueType::kDouble)),
  };
  return b;
}

// Strings: load_str, cmp_str, a string root and a string literal.
Built StringProgram() {
  Built b;
  b.roots = {
      Bin(Expr::BinaryOp::kEq, Col(0, ValueType::kString),
          LitV(Value::String("apple")), ValueType::kInt64),
      Col(0, ValueType::kString),
  };
  return b;
}

// Calls: call_num (sqrt's typed kernel) and a string-kind call_generic.
Built CallProgram() {
  Built b;
  b.roots = {
      Call("sqrt", {Col(0, ValueType::kDouble)}),
      Call("upper", {Col(1, ValueType::kString)}, ValueType::kString),
  };
  return b;
}

// Aggregates and lineage: probe_agg, read_agg_num, read_agg_str,
// col_lineage, plus a trial-variant arith in the epilogue.
Built AggProgram() {
  Built b;
  b.lineage.resize(2);
  b.lineage[1] = AggRef(0, 1, {Col(0, ValueType::kInt64)});
  b.roots = {
      Bin(Expr::BinaryOp::kAdd, Col(1, ValueType::kDouble),
          AggRef(0, 2, {}), ValueType::kDouble),
      AggRef(0, 3, {}, ValueType::kString),
  };
  return b;
}

// Two string-kind generic calls, each owning its own Value slot.
Built TwoStringCallProgram() {
  Built b;
  b.roots = {
      Call("upper", {Col(0, ValueType::kString)}, ValueType::kString),
      Call("lower", {Col(1, ValueType::kString)}, ValueType::kString),
  };
  return b;
}

void ExpectAccepted(const ExprProgram& p) {
  const VerifyResult vr = ProgramVerifier::Verify(p);
  EXPECT_TRUE(vr.ok) << "[" << vr.rule << "] " << vr.message << "\n"
                     << p.ToString();
}

void ExpectRejected(const ExprProgram& p, const std::string& rule) {
  const VerifyResult vr = ProgramVerifier::Verify(p);
  ASSERT_FALSE(vr.ok) << "mutation unexpectedly accepted:\n" << p.ToString();
  EXPECT_EQ(vr.rule, rule) << vr.message << "\n" << p.ToString();
  EXPECT_FALSE(vr.message.empty());
}

// ---------------------------------------------------------------------------
// ToString goldens: one per program family, jointly covering all 15 opcodes.

TEST(ProgramGoldenTest, NumericOpsDisassembly) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->ToString(),
            "prologue:\n"
            "  load_num dst=0 a=0 b=0 sub=0 aux=0\n"
            "  load_num dst=1 a=0 b=0 sub=0 aux=1\n"
            "  arith dst=2 a=0 b=1 sub=0 aux=0\n"
            "  mod dst=4 a=0 b=3 sub=4 aux=0\n"
            "  cmp_num dst=5 a=0 b=1 sub=7 aux=0\n"
            "  cmp_num dst=7 a=1 b=6 sub=10 aux=0\n"
            "  logic dst=8 a=5 b=7 sub=11 aux=0\n"
            "  not dst=9 a=8 b=0 sub=0 aux=0\n"
            "  neg dst=10 a=1 b=0 sub=0 aux=0\n"
            "epilogue:\n"
            "roots: n2! n4! n9! n10!\n"
            "consts: n3=i:3 n6=d:1.500000\n"
            "regs: num=11 str=0 owned=0 max_col=1 max_call_args=0\n");
}

TEST(ProgramGoldenTest, StringOpsDisassembly) {
  const Built b = StringProgram();
  const auto p = b.Compile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->ToString(),
            "prologue:\n"
            "  load_str dst=0 a=0 b=0 sub=0 aux=0\n"
            "  cmp_str dst=0 a=0 b=1 sub=5 aux=0\n"
            "epilogue:\n"
            "roots: n0! s0!\n"
            "consts: s1=\"apple\"\n"
            "regs: num=1 str=2 owned=0 max_col=0 max_call_args=0\n");
}

TEST(ProgramGoldenTest, CallSitesDisassembly) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->ToString(),
            "prologue:\n"
            "  load_num dst=0 a=0 b=0 sub=0 aux=0\n"
            "  call_num dst=1 a=0 b=0 sub=0 aux=0\n"
            "  load_str dst=0 a=0 b=0 sub=0 aux=1\n"
            "  call_generic dst=1 a=0 b=0 sub=1 aux=1\n"
            "epilogue:\n"
            "roots: n1! s1!\n"
            "call[0]: sqrt(n0) owned_slot=0\n"
            "call[1]: upper(s0) owned_slot=0\n"
            "regs: num=2 str=2 owned=1 max_col=1 max_call_args=1\n");
}

TEST(ProgramGoldenTest, AggAndLineageDisassembly) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->ToString(),
            "prologue:\n"
            "  load_num dst=0 a=0 b=0 sub=0 aux=0\n"
            "  probe_agg dst=0 a=0 b=0 sub=0 aux=0\n"
            "  probe_agg dst=0 a=0 b=0 sub=0 aux=1\n"
            "  probe_agg dst=0 a=0 b=0 sub=0 aux=2\n"
            "epilogue:\n"
            "  read_agg_num dst=1 a=0 b=0 sub=0 aux=0\n"
            "  col_lineage dst=2 a=1 b=0 sub=0 aux=1\n"
            "  read_agg_num dst=3 a=0 b=0 sub=0 aux=1\n"
            "  arith dst=4 a=2 b=3 sub=0 aux=0\n"
            "  read_agg_str dst=0 a=0 b=0 sub=0 aux=2\n"
            "roots: n4~ s0~\n"
            "agg[0]: block=0 col=1 keys=(n0)\n"
            "agg[1]: block=0 col=2 keys=()\n"
            "agg[2]: block=0 col=3 keys=()\n"
            "regs: num=5 str=1 owned=0 max_col=1 max_call_args=0\n");
}

TEST(ProgramGoldenTest, GoldensCoverEveryOpcode) {
  const Built numeric = NumericProgram();
  const Built strings = StringProgram();
  const Built calls = CallProgram();
  const Built aggs = AggProgram();
  std::string all;
  for (const Built* b : {&numeric, &strings, &calls, &aggs}) {
    const auto p = b->Compile();
    ASSERT_NE(p, nullptr);
    all += p->ToString();
  }
  for (const char* mnemonic :
       {"load_num", "load_str", "col_lineage", "neg", "not", "arith", "mod",
        "cmp_num", "cmp_str", "logic", "call_num", "call_generic", "probe_agg",
        "read_agg_num", "read_agg_str"}) {
    EXPECT_NE(all.find(std::string("  ") + mnemonic + " "), std::string::npos)
        << "goldens never exercise opcode " << mnemonic;
  }
}

// ---------------------------------------------------------------------------
// The verifier accepts everything the compiler actually emits.

TEST(ProgramVerifierTest, AcceptsCompiledPrograms) {
  for (const Built& b :
       {NumericProgram(), StringProgram(), CallProgram(), AggProgram(),
        TwoStringCallProgram()}) {
    const auto p = b.Compile();
    ASSERT_NE(p, nullptr);
    ExpectAccepted(*p);
  }
}

TEST(ProgramVerifierTest, CompileVerifiedCountsRefusalsAndVerifications) {
  const Built b = NumericProgram();
  ProgramVerifierStats stats;
  // A statically mixed string/numeric comparison refuses to compile — a
  // compiler decision, not a verifier rejection.
  const std::vector<ExprPtr> mixed = {
      Bin(Expr::BinaryOp::kLt, Col(0, ValueType::kString),
          Col(1, ValueType::kDouble), ValueType::kInt64)};
  EXPECT_EQ(CompileVerified(mixed, nullptr, &stats), nullptr);
  EXPECT_EQ(stats.refused, 1);
  EXPECT_EQ(stats.compiled, 0);

  const auto p = CompileVerified(b.roots, nullptr, &stats);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(stats.compiled, 1);
  EXPECT_EQ(stats.verified, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_TRUE(stats.last_rejection.empty());
}

// ---------------------------------------------------------------------------
// Rule (a): def-before-use / single assignment.

TEST(ProgramVerifierMutationTest, UseBeforeDefIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  // `arith dst=2 a=0 b=1` now reads its own destination before the write.
  Peer::Prologue(*p)[2].a = 2;
  ExpectRejected(*p, "def-before-use");
}

TEST(ProgramVerifierMutationTest, DoubleWriteIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  // `mod dst=4` re-targets the register the arith above already defined.
  Peer::Prologue(*p)[3].dst = 2;
  ExpectRejected(*p, "def-before-use");
}

TEST(ProgramVerifierMutationTest, DoubleProbeIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  // Both probes now fill site 1; site 0 is probed twice / never.
  Peer::Prologue(*p)[1].aux = 1;
  ExpectRejected(*p, "def-before-use");
}

TEST(ProgramVerifierMutationTest, ReadOfUnprobedSiteIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  // Drop the probe of site 0: the epilogue read now consumes a slot no
  // probe ever fills (at runtime: stale/empty AggSlot).
  auto& pro = Peer::Prologue(*p);
  pro.erase(pro.begin() + 1);
  ExpectRejected(*p, "def-before-use");
}

// ---------------------------------------------------------------------------
// Rule (b): 3VL / null-tag lattice and register-kind soundness.

TEST(ProgramVerifierMutationTest, ArithBadDiscriminantIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  Peer::Prologue(*p)[2].sub = 200;
  ExpectRejected(*p, "null-tag");
}

TEST(ProgramVerifierMutationTest, ArithBadIntFlagIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  Peer::Prologue(*p)[2].aux = 2;
  ExpectRejected(*p, "null-tag");
}

TEST(ProgramVerifierMutationTest, LogicBadDiscriminantIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  // The logic insn's discriminant becomes kAdd: not a 3VL connective.
  Peer::Prologue(*p)[6].sub = 0;
  ExpectRejected(*p, "null-tag");
}

TEST(ProgramVerifierMutationTest, CmpBadDiscriminantIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  // The first cmp_num's discriminant becomes kAnd: not a comparison.
  Peer::Prologue(*p)[4].sub = 11;
  ExpectRejected(*p, "null-tag");
}

TEST(ProgramVerifierMutationTest, IntConstBreakingNumRegInvariantIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  // The literal 3 keeps tag kInt64 but its double mirror drifts: every
  // AsDouble() downstream would silently read 4.0.
  auto& consts = Peer::ConstNum(*p);
  ASSERT_FALSE(consts.empty());
  ASSERT_EQ(consts[0].second.tag, ValueType::kInt64);
  consts[0].second.f64 = 4.0;
  ExpectRejected(*p, "null-tag");
}

TEST(ProgramVerifierMutationTest, StringArgIntoNumericKernelIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  // sqrt's call site now claims a string argument: the numeric form would
  // read a NumericValue that was never written.
  Peer::CallSites(*p)[0].args[0].is_str = true;
  ExpectRejected(*p, "register-kind");
}

TEST(ProgramVerifierMutationTest, CallArityOutsideSignatureIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  // sqrt's call site loses its argument: the numeric form reads args[0]
  // regardless, past the end of what the call passed.
  Peer::CallSites(*p)[0].args.clear();
  ExpectRejected(*p, "register-kind");
}

TEST(ProgramVerifierMutationTest, StringArgIntoNumericParameterIsRejected) {
  Built b;
  b.roots = {Call("substr",
                  {Col(0, ValueType::kString), Col(1, ValueType::kInt64),
                   LitV(Value::Int64(2))},
                  ValueType::kString)};
  const auto p = b.Compile();
  ExpectAccepted(*p);
  // substr's start position now reads the string register: its signature
  // takes a number there.
  Peer::CallSites(*p)[0].args[1] = Peer::CallSites(*p)[0].args[0];
  ExpectRejected(*p, "register-kind");
}

TEST(ProgramVerifierMutationTest, GenericKindDiscriminantIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  // call_generic's static-kind discriminant leaves {0, 1}.
  Peer::Prologue(*p)[3].sub = 2;
  ExpectRejected(*p, "register-kind");
}

// ---------------------------------------------------------------------------
// Rule (c): aux / index bounds.

TEST(ProgramVerifierMutationTest, LoadBeyondMaxColIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  Peer::Prologue(*p)[0].aux = 7;  // max_col_ claims 1
  ExpectRejected(*p, "aux-bounds");
}

TEST(ProgramVerifierMutationTest, CallSiteOutOfBoundsIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  Peer::Prologue(*p)[1].aux = 5;  // two call sites exist
  ExpectRejected(*p, "aux-bounds");
}

TEST(ProgramVerifierMutationTest, OwnedSlotOutOfBoundsIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  Peer::CallSites(*p)[1].owned_slot = 3;  // owned_slots_ claims 1
  ExpectRejected(*p, "aux-bounds");
}

TEST(ProgramVerifierMutationTest, AggSiteOutOfBoundsIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  Peer::Epilogue(*p)[0].aux = 9;  // three agg sites exist
  ExpectRejected(*p, "aux-bounds");
}

// ---------------------------------------------------------------------------
// Rule (d): trial-invariance / segment placement.

TEST(ProgramVerifierMutationTest, ProbeInEpilogueIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  // Move the probe of site 0 into the epilogue, where the resolver is
  // nullptr by contract: a guaranteed crash the verifier must preempt.
  auto& pro = Peer::Prologue(*p);
  auto& epi = Peer::Epilogue(*p);
  epi.insert(epi.begin(), pro[1]);
  pro.erase(pro.begin() + 1);
  ExpectRejected(*p, "trial-invariance");
}

TEST(ProgramVerifierMutationTest, ReadAggInPrologueIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  // Hoist a per-trial read into the prologue: it would freeze one trial's
  // replica for every trial.
  auto& pro = Peer::Prologue(*p);
  auto& epi = Peer::Epilogue(*p);
  pro.push_back(epi[0]);
  epi.erase(epi.begin());
  ExpectRejected(*p, "trial-invariance");
}

TEST(ProgramVerifierMutationTest, ColLineageHoistedIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  // Hoist the lineage column read (epilogue[1]) into the prologue.
  auto& pro = Peer::Prologue(*p);
  auto& epi = Peer::Epilogue(*p);
  pro.push_back(epi[1]);
  epi.erase(epi.begin() + 1);
  ExpectRejected(*p, "trial-invariance");
}

TEST(ProgramVerifierMutationTest, InvariantFlagOnTrialVariantRootIsRejected) {
  const Built b = AggProgram();
  const auto p = b.Compile();
  // Root 0 depends on per-trial aggregate reads; claiming invariance makes
  // Bind-time reads of it legal when its register is not yet written.
  ASSERT_FALSE(Peer::Roots(*p)[0].invariant);
  Peer::Roots(*p)[0].invariant = true;
  ExpectRejected(*p, "trial-invariance");
}

// ---------------------------------------------------------------------------
// Rule (e): register-file claims are exact.

TEST(ProgramVerifierMutationTest, NumRegsOverclaimIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  Peer::NumRegs(*p) += 1;
  ExpectRejected(*p, "register-file");
}

TEST(ProgramVerifierMutationTest, StrRegsOverclaimIsRejected) {
  const Built b = StringProgram();
  const auto p = b.Compile();
  Peer::StrRegs(*p) += 1;
  ExpectRejected(*p, "register-file");
}

TEST(ProgramVerifierMutationTest, OwnedSlotsOverclaimIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  Peer::OwnedSlots(*p) += 1;
  ExpectRejected(*p, "register-file");
}

TEST(ProgramVerifierMutationTest, MaxColOverclaimIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  Peer::MaxCol(*p) += 1;
  ExpectRejected(*p, "register-file");
}

TEST(ProgramVerifierMutationTest, MaxCallArgsOverclaimIsRejected) {
  const Built b = CallProgram();
  const auto p = b.Compile();
  Peer::MaxCallArgs(*p) += 1;
  ExpectRejected(*p, "register-file");
}

TEST(ProgramVerifierMutationTest, OwnedSlotAliasingIsRejected) {
  const Built b = TwoStringCallProgram();
  const auto p = b.Compile();
  ASSERT_EQ(Peer::CallSites(*p).size(), 2u);
  // Both string-kind generic sites now own the same Value slot: the second
  // call frees the string the first dst register still views.
  Peer::CallSites(*p)[1].owned_slot = Peer::CallSites(*p)[0].owned_slot;
  ExpectRejected(*p, "register-file");
}

TEST(ProgramVerifierMutationTest, InvalidOpcodeByteIsRejected) {
  const Built b = NumericProgram();
  const auto p = b.Compile();
  Peer::SetOpByte(Peer::Prologue(*p)[0], 99);
  ExpectRejected(*p, "opcode");
}

// ---------------------------------------------------------------------------
// Field-flip sweep: any mutant the verifier accepts must run without
// faulting (this binary runs under ASan in CI). "Accepts" therefore means
// "safe to execute", not "syntactically plausible".

TEST(ProgramVerifierSweepTest, AcceptedFieldFlipsRunWithoutFault) {
  Built b;
  b.lineage.resize(2);
  b.lineage[1] = AggRef(0, 1, {Col(0, ValueType::kInt64)});
  b.roots = {
      Bin(Expr::BinaryOp::kGt,
          Bin(Expr::BinaryOp::kAdd, Col(1, ValueType::kDouble),
              Col(2, ValueType::kDouble), ValueType::kDouble),
          LitV(Value::Double(1.0)), ValueType::kInt64),
      Call("sqrt", {Col(2, ValueType::kDouble)}),
      Call("upper", {Col(3, ValueType::kString)}, ValueType::kString),
  };
  const auto base = b.Compile();
  ASSERT_NE(base, nullptr);
  ExpectAccepted(*base);

  const SimpleResolver resolver;
  constexpr int kTrials = 4;
  const std::vector<Row> rows = {
      {Value::Int64(1), Value::Double(2.0), Value::Double(3.0),
       Value::String("ab")},
      {Value::Int64(2), Value::Null(), Value::Double(-1.0),
       Value::String("")},
  };

  int accepted = 0;
  int rejected = 0;
  const size_t pro_size = Peer::Prologue(*base).size();
  const size_t epi_size = Peer::Epilogue(*base).size();
  for (int seg = 0; seg < 2; ++seg) {
    const size_t seg_size = seg == 0 ? pro_size : epi_size;
    for (size_t i = 0; i < seg_size; ++i) {
      for (int field = 0; field < 6; ++field) {
        for (const uint16_t delta : {1, 5}) {
          const auto p = b.Compile();
          ASSERT_NE(p, nullptr);
          auto& insn =
              (seg == 0 ? Peer::Prologue(*p) : Peer::Epilogue(*p))[i];
          switch (field) {
            case 0:
              // Modulo 17 so the sweep also crosses the invalid-opcode
              // boundary (16 is past kReadAggStr).
              Peer::SetOpByte(insn,
                              static_cast<uint8_t>(
                                  (Peer::OpByte(insn) + delta) % 17));
              break;
            case 1:
              insn.sub = static_cast<uint8_t>(insn.sub + delta);
              break;
            case 2:
              insn.dst = static_cast<uint16_t>(insn.dst + delta);
              break;
            case 3:
              insn.a = static_cast<uint16_t>(insn.a + delta);
              break;
            case 4:
              insn.b = static_cast<uint16_t>(insn.b + delta);
              break;
            case 5:
              insn.aux = static_cast<uint16_t>(insn.aux + delta);
              break;
          }
          if (!ProgramVerifier::Verify(*p).ok) {
            ++rejected;
            continue;
          }
          ++accepted;
          // An accepted mutant must execute cleanly (bailing is fine; out-
          // of-bounds access is not — ASan arbitrates).
          ExprProgramState st;
          p->InitState(&st);
          for (const Row& row : rows) {
            if (!p->Bind(&st, row, &resolver, kTrials)) continue;
            double w[kTrials];
            std::fill(w, w + kTrials, 1.0);
            Value vals[kTrials * 2];
            p->EvalTrials(&st, row, kTrials, /*pred_root=*/0,
                          /*first_val_root=*/1, /*num_val_roots=*/2, w, vals);
          }
        }
      }
    }
  }
  // The sweep must exercise both outcomes: a verifier that rejects nothing
  // (or a sweep that mutates nothing) is a broken gate.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
  RecordProperty("accepted", accepted);
  RecordProperty("rejected", rejected);
}

// ---------------------------------------------------------------------------
// Directed regression: InitState sizes the owned-Value storage from the
// call sites themselves, not only the owned_slots_ claim, so a bad
// owned_slot cannot write past the buffer even on an unverified program.

TEST(ProgramVerifierRegressionTest, InitStateSizesOwnedStorageFromCallSites) {
  const Built b = TwoStringCallProgram();
  const auto p = b.Compile();
  ASSERT_NE(p, nullptr);
  Peer::CallSites(*p)[0].owned_slot = 57;  // far past owned_slots_ == 2
  // The verifier rejects the claim mismatch up front...
  ExpectRejected(*p, "aux-bounds");
  // ...and even if a caller skipped verification, InitState's defensive
  // sizing keeps the kCallGeneric write in bounds (ASan checks this).
  ExprProgramState st;
  p->InitState(&st);
  const Row row = {Value::String("ok"), Value::String("YES")};
  ASSERT_TRUE(p->Bind(&st, row, nullptr, 1));
  const Value upper = p->RootValue(st, 0);
  ASSERT_EQ(upper.type(), ValueType::kString);
  EXPECT_EQ(upper.str(), "OK");
  const Value lower = p->RootValue(st, 1);
  ASSERT_EQ(lower.type(), ValueType::kString);
  EXPECT_EQ(lower.str(), "yes");
}

// ---------------------------------------------------------------------------
// Plan invariant prover: program-vs-plan agreement.

Block MakeAggSource(bool aggregate = true) {
  Block b;
  b.id = 0;
  b.debug_name = "source";
  b.spj_schema = Schema({{"k", ValueType::kInt64}, {"v", ValueType::kDouble}});
  if (aggregate) {
    b.group_by = {Col(0, ValueType::kInt64)};
    b.group_by_names = {"k"};
    AggSpec spec;
    spec.arg = Col(1, ValueType::kDouble);
    spec.output_name = "s";
    b.aggs.push_back(std::move(spec));
  }
  b.output_schema =
      Schema({{"k", ValueType::kInt64}, {"s", ValueType::kDouble}});
  return b;
}

Block MakeConsumer(ExprPtr filter) {
  Block b;
  b.id = 1;
  b.debug_name = "consumer";
  b.spj_schema = Schema({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
  b.filter = std::move(filter);
  b.group_by = {Col(0, ValueType::kInt64)};
  b.group_by_names = {"a"};
  AggSpec spec;
  spec.arg = Col(1, ValueType::kDouble);
  spec.output_name = "m";
  b.aggs.push_back(std::move(spec));
  b.output_schema =
      Schema({{"a", ValueType::kInt64}, {"m", ValueType::kDouble}});
  return b;
}

struct PlanFixture {
  QueryPlan plan;
  std::vector<ExprPtr> roots;

  explicit PlanFixture(ExprPtr agg_ref, bool aggregate_source = true) {
    plan.blocks.push_back(MakeAggSource(aggregate_source));
    plan.blocks.push_back(MakeConsumer(
        Bin(Expr::BinaryOp::kGt, Col(1, ValueType::kDouble),
            std::move(agg_ref), ValueType::kInt64)));
    const Block& consumer = plan.blocks[1];
    roots = {consumer.filter, consumer.aggs[0].arg};
  }

  std::unique_ptr<const ExprProgram> Compile() const {
    auto p = ExprProgram::Compile(roots, nullptr);
    EXPECT_NE(p, nullptr);
    return p;
  }

  PlanVerifyResult Check(const ExprProgram& program) const {
    return VerifyBlockProgram(plan, plan.blocks[1], program,
                              ProgramRole::kRowProgram);
  }
};

ExprPtr WellFormedAggRef() {
  return AggRef(0, 1, {Col(0, ValueType::kInt64)});
}

TEST(PlanVerifierTest, AcceptsAgreeingRowProgram) {
  const PlanFixture f(WellFormedAggRef());
  const auto p = f.Compile();
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res = f.Check(*p);
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(PlanVerifierTest, RootCountMismatchIsRejected) {
  const PlanFixture f(WellFormedAggRef());
  // Compile only the filter: the plan expects filter + one aggregate arg.
  const std::vector<ExprPtr> partial = {f.roots[0]};
  const auto p = ExprProgram::Compile(partial, nullptr);
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res = f.Check(*p);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("roots"), std::string::npos) << res.message;
}

TEST(PlanVerifierTest, RootKindMismatchIsRejected) {
  // A projection block typed string whose program landed the root in the
  // numeric file (as if the binder and compiler disagreed on the type).
  Block top;
  top.id = 1;
  top.spj_schema = Schema({{"s", ValueType::kString}});
  top.projections = {Col(0, ValueType::kString)};
  top.projection_names = {"s"};
  top.output_schema = Schema({{"s", ValueType::kString}});
  QueryPlan plan;
  plan.blocks.push_back(MakeAggSource());
  plan.blocks.push_back(top);

  // Same column index, but compiled under a numeric static type.
  const std::vector<ExprPtr> roots = {Col(0, ValueType::kInt64)};
  const auto p = ExprProgram::Compile(roots, nullptr);
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res =
      VerifyBlockProgram(plan, plan.blocks[1], *p, ProgramRole::kProjection);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("register"), std::string::npos) << res.message;
}

TEST(PlanVerifierTest, LoadBeyondSpjSchemaIsRejected) {
  Block top;
  top.id = 1;
  top.spj_schema = Schema({{"x", ValueType::kDouble}});
  top.projections = {Col(2, ValueType::kDouble)};
  top.projection_names = {"x"};
  top.output_schema = Schema({{"x", ValueType::kDouble}});
  QueryPlan plan;
  plan.blocks.push_back(MakeAggSource());
  plan.blocks.push_back(top);

  const auto p = ExprProgram::Compile(top.projections, nullptr);
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res =
      VerifyBlockProgram(plan, plan.blocks[1], *p, ProgramRole::kProjection);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("SPJ schema"), std::string::npos) << res.message;
}

TEST(PlanVerifierTest, AggSiteNotStrictlyUpstreamIsRejected) {
  // The reference targets the consumer itself (block 1): a probe cycle.
  const PlanFixture f(AggRef(1, 1, {Col(0, ValueType::kInt64)}));
  const auto p = f.Compile();
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res = f.Check(*p);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("strictly upstream"), std::string::npos)
      << res.message;
}

TEST(PlanVerifierTest, AggSiteIntoNonAggregateBlockIsRejected) {
  const PlanFixture f(WellFormedAggRef(), /*aggregate_source=*/false);
  const auto p = f.Compile();
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res = f.Check(*p);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("non-aggregate"), std::string::npos)
      << res.message;
}

TEST(PlanVerifierTest, AggSiteColumnOutOfRangeIsRejected) {
  // Column 5 of a two-column (key, aggregate) output.
  const PlanFixture f(AggRef(0, 5, {Col(0, ValueType::kInt64)}));
  const auto p = f.Compile();
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res = f.Check(*p);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("whose output has"), std::string::npos)
      << res.message;
}

TEST(PlanVerifierTest, AggSiteKeyArityMismatchIsRejected) {
  // No keys against a source grouped by one column.
  const PlanFixture f(AggRef(0, 1, {}));
  const auto p = f.Compile();
  ASSERT_NE(p, nullptr);
  const PlanVerifyResult res = f.Check(*p);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.message.find("groups by"), std::string::npos) << res.message;
}

// ---------------------------------------------------------------------------
// Workload corpus gate: every program the paper's workloads compile must
// verify. A rejection falls back to the interpreter without changing the
// result, so the gate is the rejection counter: it must stay at zero.

TEST(ProgramVerifierCorpusTest, WorkloadProgramsVerifyWithZeroRejections) {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());

  struct Case {
    std::string name;
    std::shared_ptr<Catalog> catalog;
    std::string sql;
  };
  std::vector<Case> cases;
  for (const BenchQuery& q : TpchQueries()) {
    TpchConfig config;
    auto catalog = MakeTpchCatalog(config.Scaled(0.01), q.streamed_table);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    cases.push_back({"tpch_" + q.id, *catalog, q.sql});
  }
  for (const BenchQuery& q : ConvivaQueries()) {
    ConvivaConfig config;
    auto catalog = MakeConvivaCatalog(config.Scaled(0.01));
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    cases.push_back({"conviva_" + q.id, *catalog, q.sql});
  }
  ASSERT_GT(cases.size(), 4u);

  int total_compiled = 0;
  int total_refused = 0;
  for (const Case& c : cases) {
    EngineOptions options;
    options.num_trials = 8;
    options.num_batches = 3;
    options.slack = 2.0;
    options.seed = 77;
    options.compile_expressions = true;
    Session session(c.catalog.get(), options, functions);
    auto query = session.Sql(c.sql);
    ASSERT_TRUE(query.ok()) << c.name << ": " << query.status();
    const Status run_status = (*query)->Run([](const PartialResult&) {
      return BatchAction::kContinue;
    });
    EXPECT_TRUE(run_status.ok()) << c.name << ": " << run_status;
    const QueryMetrics& m = (*query)->metrics();
    EXPECT_EQ(m.programs_rejected, 0) << c.name << ": " << m.Summary();
    EXPECT_EQ(m.programs_verified, m.programs_compiled)
        << c.name << ": " << m.Summary();
    if (m.programs_compiled > 0) {
      EXPECT_NE(m.Summary().find("programs="), std::string::npos) << c.name;
    }
    total_compiled += m.programs_compiled;
    total_refused += m.compile_refusals;
  }
  // The corpus must actually exercise the verifier: at least one workload
  // program has to reach the compiled path.
  EXPECT_GT(total_compiled, 0);
  RecordProperty("total_compiled", total_compiled);
  RecordProperty("total_refused", total_refused);
}

}  // namespace
}  // namespace iolap
