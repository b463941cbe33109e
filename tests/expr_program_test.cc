// Tests of the compiled expression programs (exec/expr_program): directed
// semantics checks against the interpreter, hoisting/probe-count structure,
// constant folding, compile refusals, a differential fuzzer over random
// well-typed trees, and engine-level checks on the paper's workloads: the
// programs against Expr::Eval on a real run's registry, and thread-count
// bit-identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/expr.h"
#include "core/function_registry.h"
#include "core/value.h"
#include "exec/expr_program.h"
#include "exec/program_verifier.h"
#include "iolap/aggregate_registry.h"
#include "iolap/session.h"
#include "plan/uncertainty_analysis.h"
#include "sql/binder.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {
namespace {

// ---------------------------------------------------------------------------
// Helpers

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
// Calls resolve against the built-ins plus the Conviva UDFs, as the binder
// would bind them.
ExprPtr Call(const std::string& name, std::vector<ExprPtr> args,
             ValueType type = ValueType::kDouble) {
  static const std::shared_ptr<FunctionRegistry> functions = [] {
    auto registry = FunctionRegistry::Default();
    RegisterConvivaUdfs(registry.get());
    return registry;
  }();
  return std::make_shared<CallExpr>(*functions->FindScalar(name),
                                    std::move(args), type);
}
ExprPtr AggRef(int block, int col, std::vector<ExprPtr> keys) {
  return std::make_shared<AggLookupExpr>(block, col, std::move(keys),
                                         ValueType::kDouble, "agg");
}

// Exact (bit-level for doubles, NaN == NaN) value equality: the contract is
// that the compiled path reproduces the interpreter's result *bits*.
bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.int64() == b.int64();
    case ValueType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      uint64_t xb = 0;
      uint64_t yb = 0;
      std::memcpy(&xb, &x, sizeof(x));
      std::memcpy(&yb, &y, sizeof(y));
      return xb == yb;
    }
    case ValueType::kString:
      return a.str() == b.str();
  }
  return false;
}

// An unboxed trial argument equals TrialArg::Of(`want`): the same type and
// the same AsDouble() bits, all a trial fold reads.
bool BitEqual(const TrialArg& got, const Value& want) {
  const TrialArg expect = TrialArg::Of(want);
  uint64_t xb = 0;
  uint64_t yb = 0;
  std::memcpy(&xb, &got.x, sizeof(got.x));
  std::memcpy(&yb, &expect.x, sizeof(expect.x));
  return got.type == expect.type && xb == yb;
}

std::string Describe(const Value& v) {
  return v.ToString() + " (type " + std::to_string(static_cast<int>(v.type())) +
         ")";
}

// A resolver with deterministic per-(block, col, key) values, per-trial
// variation, occasional NULLs and int-typed values, and call counting so
// tests can assert how many probes each path makes. Trials at or past
// `covered_trials` exercise the fall-back-to-main branch of LookupTrial.
class FakeResolver final : public AggLookupResolver {
 public:
  explicit FakeResolver(int covered_trials) : covered_trials_(covered_trials) {}

  Value Lookup(int block_id, int col, const Row& key) const override {
    ++lookup_calls_;
    return MainOf(block_id, col, key);
  }

  Value LookupTrial(int block_id, int col, const Row& key,
                    int trial) const override {
    ++trial_calls_;
    return TrialOf(block_id, col, key, trial);
  }

  void LookupTrials(int block_id, int col, const Row& key, int num_trials,
                    Value* out) const override {
    ++batched_calls_;
    for (int t = 0; t < num_trials; ++t) {
      out[t] = TrialOf(block_id, col, key, t);
    }
  }

  Interval LookupRange(int, int, const Row&) const override {
    return Interval::Unbounded();
  }

  int lookup_calls() const { return lookup_calls_; }
  int trial_calls() const { return trial_calls_; }
  int batched_calls() const { return batched_calls_; }
  void ResetCounts() { lookup_calls_ = trial_calls_ = batched_calls_ = 0; }

 private:
  static double Base(int block_id, int col, const Row& key) {
    double h = 13.0 * block_id + 31.0 * col;
    for (const Value& v : key) {
      if (v.is_null()) {
        h += 3.5;
      } else if (v.is_numeric()) {
        h += v.AsDouble();
      } else {
        h += static_cast<double>(v.str().size());
      }
    }
    return h;
  }

  Value MainOf(int block_id, int col, const Row& key) const {
    const double b = Base(block_id, col, key);
    const double m = std::fabs(std::fmod(b, 11.0));
    if (m < 1.0) return Value::Null();
    if (m < 2.0) return Value::Int64(static_cast<int64_t>(b));
    return Value::Double(b * 1.25);
  }

  Value TrialOf(int block_id, int col, const Row& key, int trial) const {
    if (trial >= covered_trials_) return MainOf(block_id, col, key);
    const double b = Base(block_id, col, key);
    if (std::fabs(std::fmod(b + trial, 13.0)) < 1.0) return Value::Null();
    return Value::Double(b + 0.01 * trial);
  }

  int covered_trials_;
  mutable int lookup_calls_ = 0;
  mutable int trial_calls_ = 0;
  mutable int batched_calls_ = 0;
};

struct Harness {
  FakeResolver resolver{8};
  const std::vector<ExprPtr>* lineage = nullptr;

  EvalContext Ctx(int trial) const {
    EvalContext ctx;
    ctx.resolver = &resolver;
    ctx.column_lineage = lineage;
    ctx.trial = trial;
    return ctx;
  }

  // Compiles `roots` and checks compiled evaluation against the interpreter
  // for every root and every trial in {-1, 0, ..., trials-1} over `row`.
  // Returns false if the program could not compile (callers assert on it).
  bool CheckRow(const std::vector<ExprPtr>& roots, const Row& row, int trials,
                const std::string& context) {
    auto program = ExprProgram::Compile(roots, lineage);
    if (program == nullptr) return false;
    // Everything the compiler accepts must pass the static verifier.
    const VerifyResult vr = ProgramVerifier::Verify(*program);
    EXPECT_TRUE(vr.ok) << context << ": verifier rejected a compiled program ["
                       << vr.rule << "] " << vr.message << "\n"
                       << program->ToString();
    ExprProgramState state;
    program->InitState(&state);
    program->Bind(&state, row, &resolver, trials);
    for (int t = -1; t < trials; ++t) {
      program->EvalTrial(&state, row, t);
      for (size_t r = 0; r < roots.size(); ++r) {
        const Value expect = roots[r]->Eval(row, Ctx(t));
        const Value got = program->RootValue(state, r);
        EXPECT_TRUE(BitEqual(expect, got))
            << context << " root " << r << " trial " << t << ": interpreter "
            << Describe(expect) << " vs compiled " << Describe(got) << "\n"
            << roots[r]->ToString() << "\n"
            << program->ToString();
        if (!BitEqual(expect, got)) return true;
      }
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Directed semantics

TEST(ExprProgramTest, ArithmeticMatchesInterpreter) {
  Harness h;
  const Row row = {Value::Int64(7), Value::Int64(2), Value::Double(0.125),
                   Value::Double(0.0), Value::Null()};
  const ExprPtr i7 = Col(0, ValueType::kInt64);
  const ExprPtr i2 = Col(1, ValueType::kInt64);
  const ExprPtr d = Col(2, ValueType::kDouble);
  const ExprPtr zero = Col(3, ValueType::kDouble);
  const ExprPtr null_col = Col(4, ValueType::kDouble);

  std::vector<ExprPtr> roots = {
      // Int64 static output: all-double arithmetic then truncation.
      Bin(Expr::BinaryOp::kAdd, i7, i2, ValueType::kInt64),
      Bin(Expr::BinaryOp::kDiv, i7, i2, ValueType::kInt64),  // 3.5 -> 3
      Bin(Expr::BinaryOp::kDiv, i7, i2, ValueType::kDouble),  // stays 3.5
      Bin(Expr::BinaryOp::kMul, i7, d),
      Bin(Expr::BinaryOp::kDiv, i7, zero),        // x / 0.0 -> NULL
      Bin(Expr::BinaryOp::kMod, i7, i2, ValueType::kInt64),
      Bin(Expr::BinaryOp::kMod, i7, zero, ValueType::kInt64),  // NULL
      Bin(Expr::BinaryOp::kAdd, i7, null_col),    // NULL propagation
      Un(Expr::UnaryOp::kNeg, i7),                // runtime int -> Int64(-7)
      Un(Expr::UnaryOp::kNeg, d),
      Un(Expr::UnaryOp::kNeg, null_col),
      Bin(Expr::BinaryOp::kSub, Un(Expr::UnaryOp::kNeg, i2), d),
  };
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "arith"));
}

TEST(ExprProgramTest, ComparisonAndLogicMatchInterpreter) {
  Harness h;
  const Row row = {Value::Int64(3), Value::Double(3.0), Value::Null(),
                   Value::String("apple"), Value::String("banana"),
                   Value::Int64(0)};
  const ExprPtr i = Col(0, ValueType::kInt64);
  const ExprPtr d = Col(1, ValueType::kDouble);
  const ExprPtr n = Col(2, ValueType::kDouble);
  const ExprPtr sa = Col(3, ValueType::kString);
  const ExprPtr sb = Col(4, ValueType::kString);
  const ExprPtr zero = Col(5, ValueType::kInt64);

  std::vector<ExprPtr> roots;
  for (auto op : {Expr::BinaryOp::kEq, Expr::BinaryOp::kNe, Expr::BinaryOp::kLt,
                  Expr::BinaryOp::kLe, Expr::BinaryOp::kGt,
                  Expr::BinaryOp::kGe}) {
    roots.push_back(Bin(op, i, d, ValueType::kInt64));   // Int64(3) vs 3.0
    roots.push_back(Bin(op, sa, sb, ValueType::kInt64));  // string compare
    roots.push_back(Bin(op, i, n, ValueType::kInt64));    // NULL comparison
  }
  // Three-valued logic over {true, false, NULL} operands, both orders. The
  // interpreter evaluates both sides (no short-circuit), which matters when
  // one side is NULL.
  const std::vector<ExprPtr> bools = {
      Bin(Expr::BinaryOp::kGt, i, zero, ValueType::kInt64),  // true
      Bin(Expr::BinaryOp::kLt, i, zero, ValueType::kInt64),  // false
      Bin(Expr::BinaryOp::kGt, n, zero, ValueType::kInt64),  // NULL
  };
  for (const ExprPtr& a : bools) {
    for (const ExprPtr& b : bools) {
      roots.push_back(Bin(Expr::BinaryOp::kAnd, a, b, ValueType::kInt64));
      roots.push_back(Bin(Expr::BinaryOp::kOr, a, b, ValueType::kInt64));
      roots.push_back(Un(Expr::UnaryOp::kNot, a, ValueType::kInt64));
    }
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "cmp_logic"));
}

TEST(ExprProgramTest, CallsMatchInterpreter) {
  Harness h;
  const Row row = {Value::Double(2.25), Value::Double(-3.0), Value::Null(),
                   Value::Int64(5), Value::String("MixedCase")};
  const ExprPtr x = Col(0, ValueType::kDouble);
  const ExprPtr neg = Col(1, ValueType::kDouble);
  const ExprPtr n = Col(2, ValueType::kDouble);
  const ExprPtr i = Col(3, ValueType::kInt64);
  const ExprPtr s = Col(4, ValueType::kString);

  std::vector<ExprPtr> roots = {
      Call("sqrt", {x}),
      Call("sqrt", {neg}),  // negative -> 0.0 per the builtin
      Call("abs", {neg}),
      Call("abs", {n}),
      Call("pow", {x, LitV(Value::Int64(2))}),
      Call("mod", {i, LitV(Value::Int64(3))}, ValueType::kInt64),
      Call("least", {x, neg, i}),     // preserves the runtime tag
      Call("greatest", {x, neg, n}),  // skips NULLs
      Call("if", {Bin(Expr::BinaryOp::kGt, x, neg, ValueType::kInt64), i, x}),
      Call("if", {n, i, x}),  // NULL condition is falsy, no propagation
      Call("coalesce", {n, i, x}),
      Call("coalesce", {n, n}, ValueType::kDouble),
      // Generic (Value-boxed) calls: string arguments and string results.
      Call("length", {s}, ValueType::kInt64),
      Call("upper", {s}, ValueType::kString),
      Call("lower", {s}, ValueType::kString),
      Call("concat", {s, LitV(Value::String("-suffix"))}, ValueType::kString),
      Call("substr", {s, LitV(Value::Int64(2)), LitV(Value::Int64(4))},
           ValueType::kString),
      // String result feeding a comparison.
      Bin(Expr::BinaryOp::kEq, Call("upper", {s}, ValueType::kString),
          LitV(Value::String("MIXEDCASE")), ValueType::kInt64),
  };
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "calls"));
}

TEST(ExprProgramTest, AggLookupsMatchInterpreterAcrossTrials) {
  Harness h;
  const Row row = {Value::Int64(4), Value::Double(10.0), Value::Int64(9)};
  const ExprPtr key = Col(0, ValueType::kInt64);
  const ExprPtr other_key = Col(2, ValueType::kInt64);
  const ExprPtr d = Col(1, ValueType::kDouble);

  std::vector<ExprPtr> roots = {
      AggRef(0, 1, {key}),
      // Trial-variant comparison: column > aggregate replica.
      Bin(Expr::BinaryOp::kGt, d, AggRef(0, 1, {key}), ValueType::kInt64),
      // Two distinct sites combined; one hits the NULL-producing groups.
      Bin(Expr::BinaryOp::kAdd, AggRef(0, 2, {key}),
          AggRef(1, 1, {other_key})),
      // Same site referenced twice: CSE must still match the interpreter
      // (which probes twice but gets identical values).
      Bin(Expr::BinaryOp::kSub, AggRef(0, 1, {key}), AggRef(0, 1, {key})),
  };
  // 12 trials with covered_trials = 8 exercises the fall-back-to-main branch
  // of LookupTrial inside the batched probe.
  EXPECT_TRUE(h.CheckRow(roots, row, 12, "agg_lookups"));
}

TEST(ExprProgramTest, ColumnLineageMatchesInterpreter) {
  Harness h;
  // Column 1's stored value is stale; its lineage recomputes it from an
  // aggregate lookup keyed by column 0 (the §6.2 lazy-evaluation shape), in
  // the main pass and in every trial.
  std::vector<ExprPtr> lineage(3);
  lineage[1] = Bin(Expr::BinaryOp::kMul, AggRef(0, 1, {Col(0, ValueType::kInt64)}),
                   LitV(Value::Double(2.0)));
  h.lineage = &lineage;

  const Row row = {Value::Int64(6), Value::Double(123.0), Value::Double(1.5)};
  std::vector<ExprPtr> roots = {
      Col(1, ValueType::kDouble),  // never reads the stored 123.0
      Bin(Expr::BinaryOp::kAdd, Col(1, ValueType::kDouble),
          Col(2, ValueType::kDouble)),
      Bin(Expr::BinaryOp::kGt, Col(1, ValueType::kDouble),
          LitV(Value::Double(50.0)), ValueType::kInt64),
  };
  EXPECT_TRUE(h.CheckRow(roots, row, 6, "lineage"));
}

// ---------------------------------------------------------------------------
// Structure: hoisting, probes, folding, refusals

TEST(ExprProgramTest, HoistsTrialInvariantWorkIntoPrologue) {
  Harness h;
  // filter: (a * 2 + sqrt(b)) > agg(key) — everything left of `>` is
  // trial-invariant and must compile into the prologue; only the aggregate
  // read and the comparison may run per trial.
  const ExprPtr invariant_side =
      Bin(Expr::BinaryOp::kAdd,
          Bin(Expr::BinaryOp::kMul, Col(0, ValueType::kDouble),
              LitV(Value::Double(2.0))),
          Call("sqrt", {Col(1, ValueType::kDouble)}));
  const ExprPtr filter =
      Bin(Expr::BinaryOp::kGt, invariant_side,
          AggRef(0, 1, {Col(2, ValueType::kInt64)}), ValueType::kInt64);
  const ExprPtr pure = Bin(Expr::BinaryOp::kAdd, Col(0, ValueType::kDouble),
                           Col(1, ValueType::kDouble));

  auto program = ExprProgram::Compile({filter, pure}, nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->num_agg_sites(), 1u);
  EXPECT_GT(program->prologue_size(), 0u);
  // Epilogue: exactly the aggregate read and the comparison.
  EXPECT_EQ(program->epilogue_size(), 2u) << program->ToString();
  EXPECT_FALSE(program->root_trial_invariant(0));
  EXPECT_TRUE(program->root_trial_invariant(1));

  // One Bind = one main lookup + one batched trial probe per site — however
  // many trials and EvalTrial calls follow.
  ExprProgramState state;
  program->InitState(&state);
  const Row row = {Value::Double(4.0), Value::Double(9.0), Value::Int64(3)};
  h.resolver.ResetCounts();
  program->Bind(&state, row, &h.resolver, 50);
  EXPECT_EQ(h.resolver.lookup_calls(), 1);
  EXPECT_EQ(h.resolver.batched_calls(), 1);
  EXPECT_EQ(h.resolver.trial_calls(), 0);
  for (int t = -1; t < 50; ++t) {
    program->EvalTrial(&state, row, t);
  }
  EXPECT_EQ(h.resolver.lookup_calls(), 1) << "per-trial eval must not probe";
  EXPECT_EQ(h.resolver.batched_calls(), 1);
}

TEST(ExprProgramTest, FoldsConstantSubtrees) {
  Harness h;
  // (1 + 2) * 3 > 4.0 && sqrt(16.0) = 4.0 — fully constant: no instructions
  // at all, the root is a materialized literal.
  const ExprPtr folded = Bin(
      Expr::BinaryOp::kAnd,
      Bin(Expr::BinaryOp::kGt,
          Bin(Expr::BinaryOp::kMul,
              Bin(Expr::BinaryOp::kAdd, LitV(Value::Int64(1)),
                  LitV(Value::Int64(2)), ValueType::kInt64),
              LitV(Value::Int64(3)), ValueType::kInt64),
          LitV(Value::Double(4.0)), ValueType::kInt64),
      Bin(Expr::BinaryOp::kEq, Call("sqrt", {LitV(Value::Double(16.0))}),
          LitV(Value::Double(4.0)), ValueType::kInt64),
      ValueType::kInt64);
  auto program = ExprProgram::Compile({folded}, nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->prologue_size(), 0u) << program->ToString();
  EXPECT_EQ(program->epilogue_size(), 0u);
  ExprProgramState state;
  program->InitState(&state);
  const Row row;
  program->Bind(&state, row, nullptr, 0);
  program->EvalTrial(&state, row, -1);
  EXPECT_TRUE(BitEqual(program->RootValue(state, 0), Value::Bool(true)));

  // String vs literal-NULL comparison folds to constant NULL instead of
  // refusing the mixed-kind compare.
  const ExprPtr null_cmp =
      Bin(Expr::BinaryOp::kEq, Col(0, ValueType::kString), LitV(Value::Null()),
          ValueType::kInt64);
  auto program2 = ExprProgram::Compile({null_cmp}, nullptr);
  ASSERT_NE(program2, nullptr);
  ExprProgramState state2;
  program2->InitState(&state2);
  const Row row2 = {Value::String("x")};
  program2->Bind(&state2, row2, nullptr, 0);
  program2->EvalTrial(&state2, row2, -1);
  EXPECT_TRUE(program2->RootValue(state2, 0).is_null());
}

// The binder rejects every shape the compiler refuses (sql_test's
// SqlBindTest.StringNumberMixIsABindError and
// SqlBindTest.LookupKeyedOnUncertainValueIsABindError), so a refusal seen by
// the engine fails QueryController::Init. Unknown functions and wrong
// arities never reach the compiler either
// (SqlBindTest.ScalarCallsCheckedAgainstSignature).
TEST(ExprProgramTest, RefusesWhatItCannotProve) {
  // Statically mixed string/numeric comparison.
  EXPECT_EQ(ExprProgram::Compile(
                {Bin(Expr::BinaryOp::kLt, Col(0, ValueType::kString),
                     Col(1, ValueType::kDouble), ValueType::kInt64)},
                nullptr),
            nullptr);
  // Arithmetic over a statically-string operand.
  EXPECT_EQ(ExprProgram::Compile({Bin(Expr::BinaryOp::kAdd,
                                      Col(0, ValueType::kString),
                                      Col(1, ValueType::kDouble))},
                                 nullptr),
            nullptr);
  // Trial-variant aggregate key: the batched prologue probe cannot cover it.
  std::string why;
  EXPECT_EQ(ExprProgram::Compile(
                {AggRef(0, 1, {AggRef(1, 1, {Col(0, ValueType::kInt64)})})},
                nullptr, &why),
            nullptr);
  EXPECT_EQ(why, "trial-variant aggregate key");
  // A refusal names its rule.
  EXPECT_EQ(ExprProgram::Compile(
                {Un(Expr::UnaryOp::kNeg, Col(0, ValueType::kString))}, nullptr,
                &why),
            nullptr);
  EXPECT_EQ(why, "string operand");
}

// A function whose body breaks its declared result type gives NULL, in
// Expr::Eval and in a compiled program alike (CallBoxed), and the other way
// round for a string function returning a number.
TEST(ExprProgramTest, CallResultOutsideItsStaticTypeIsNull) {
  Harness h;
  ScalarFunction bad_num{
      .name = "bad_num",
      .signature = {.params = {ParamKind::kNumeric},
                    .result = ValueType::kDouble},
      .boxed = [](const Value*, size_t) { return Value::String("oops"); }};
  ScalarFunction bad_str{
      .name = "bad_str",
      .signature = {.params = {ParamKind::kNumeric},
                    .result = ValueType::kString},
      .boxed = [](const Value* args, size_t) { return args[0]; }};
  const ExprPtr x = Col(0, ValueType::kDouble);
  const std::vector<ExprPtr> roots = {
      std::make_shared<CallExpr>(&bad_num, std::vector<ExprPtr>{x},
                                 ValueType::kDouble),
      std::make_shared<CallExpr>(&bad_str, std::vector<ExprPtr>{x},
                                 ValueType::kString)};
  const Row row = {Value::Double(2.5)};
  for (const ExprPtr& root : roots) {
    EXPECT_TRUE(root->Eval(row, h.Ctx(-1)).is_null()) << root->ToString();
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "bad calls"));
}

// A call returning one of its arguments is typed by its first result
// candidate that is not NULL-typed, so coalesce(NULL, x), if(c, NULL, x)
// and least(NULL, x) return x in Expr::Eval and in a compiled program, and
// a string compared with any NULL-typed operand compiles to NULL.
TEST(ExprProgramTest, NullTypedArgumentsLeaveTheOtherCandidates) {
  Harness h;
  const auto typed_call = [](const std::string& name,
                             std::vector<ExprPtr> args) {
    std::vector<ValueType> types;
    for (const ExprPtr& arg : args) types.push_back(arg->output_type());
    const ExprPtr untyped = Call(name, args);
    const auto& fn = static_cast<const CallExpr&>(*untyped).function();
    return std::make_shared<CallExpr>(&fn, std::move(args),
                                      fn.signature.ResultType(types));
  };
  const Row row = {Value::Double(2.5), Value::Int64(7), Value::String("us")};
  const ExprPtr x = Col(0, ValueType::kDouble);
  const ExprPtr i = Col(1, ValueType::kInt64);
  const ExprPtr s = Col(2, ValueType::kString);
  const ExprPtr null = LitV(Value::Null());
  const ExprPtr yes = LitV(Value::Int64(1));
  const ExprPtr no = LitV(Value::Int64(0));
  const std::vector<ExprPtr> roots = {
      typed_call("coalesce", {null, x}),
      typed_call("if", {yes, null, x}),
      typed_call("if", {no, null, x}),
      typed_call("least", {null, i}),
      typed_call("coalesce", {null, null, s}),
      typed_call("if", {no, null, s}),
      // A string against NULL-typed operands: a call and a lookup.
      Bin(Expr::BinaryOp::kEq, s, typed_call("coalesce", {null, null}),
          ValueType::kInt64),
      Bin(Expr::BinaryOp::kEq, s,
          std::make_shared<AggLookupExpr>(0, 1, std::vector<ExprPtr>{i},
                                          ValueType::kNull, "agg"),
          ValueType::kInt64),
  };
  const std::vector<Value> expect = {
      Value::Double(2.5), Value::Null(),       Value::Double(2.5),
      Value::Int64(7),    Value::String("us"), Value::String("us"),
      Value::Null(),      Value::Null()};
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_TRUE(BitEqual(roots[r]->Eval(row, h.Ctx(-1)), expect[r]))
        << roots[r]->ToString();
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 2, "null-typed candidates"));
}

// Distinct int64s beyond ±2^53 stay distinct: 2^53 + 1 = 2^53 is false in
// Expr::Eval and in a compiled program, and an int64 equals a double only
// when the double is integral and the same number.
TEST(ExprProgramTest, WideIntegersCompareExactly) {
  Harness h;
  const int64_t k53 = int64_t{1} << 53;
  const Row row = {Value::Int64(k53 + 1), Value::Int64(k53),
                   Value::Double(0x1p53)};
  const ExprPtr a = Col(0, ValueType::kInt64);
  const ExprPtr b = Col(1, ValueType::kInt64);
  const ExprPtr d = Col(2, ValueType::kDouble);
  const std::vector<ExprPtr> roots = {
      Bin(Expr::BinaryOp::kEq, a, b, ValueType::kInt64),
      Bin(Expr::BinaryOp::kGt, a, b, ValueType::kInt64),
      Bin(Expr::BinaryOp::kEq, a, d, ValueType::kInt64),
      Bin(Expr::BinaryOp::kGt, a, d, ValueType::kInt64),
      Bin(Expr::BinaryOp::kEq, b, d, ValueType::kInt64),
      Bin(Expr::BinaryOp::kEq, a, LitV(Value::Int64(k53)), ValueType::kInt64),
  };
  const std::vector<int64_t> expect = {0, 1, 0, 1, 1, 0};
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_TRUE(BitEqual(roots[r]->Eval(row, h.Ctx(-1)),
                         Value::Int64(expect[r])))
        << roots[r]->ToString();
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "wide ints"));
}

// Statically-int64 + - * whose double result leaves the int64 range, and
// negating INT64_MIN, give NULL, from registers and folded constants alike.
TEST(ExprProgramTest, IntArithmeticAndNegationDefinedOnHostileOperands) {
  Harness h;
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const Row row = {Value::Int64(5'000'000'000'000'000'000), Value::Int64(kMin),
                   Value::Int64(-5)};
  const ExprPtr big = Col(0, ValueType::kInt64);
  const ExprPtr min = Col(1, ValueType::kInt64);
  const ExprPtr ten = LitV(Value::Int64(10));
  const std::vector<ExprPtr> roots = {
      Bin(Expr::BinaryOp::kMul, big, ten, ValueType::kInt64),
      Bin(Expr::BinaryOp::kAdd, big, big, ValueType::kInt64),
      Bin(Expr::BinaryOp::kSub, min, big, ValueType::kInt64),
      Neg(min),
      Neg(Col(2, ValueType::kInt64)),
      Bin(Expr::BinaryOp::kMul, LitV(row[0]), ten, ValueType::kInt64),
      Neg(LitV(row[1])),
      Bin(Expr::BinaryOp::kAdd, min, LitV(Value::Int64(1)),
          ValueType::kInt64),
  };
  const std::vector<Value> expected = {
      Value::Null(), Value::Null(),    Value::Null(), Value::Null(),
      Value::Int64(5), Value::Null(), Value::Null(), Value::Int64(kMin)};
  auto program = ExprProgram::Compile(roots, nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_NE(program->ToString().find("  neg "), std::string::npos);
  ExprProgramState state;
  program->InitState(&state);
  program->Bind(&state, row, nullptr, 0);
  program->EvalTrial(&state, row, -1);
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_TRUE(BitEqual(program->RootValue(state, r), expected[r]))
        << roots[r]->ToString() << " = "
        << Describe(program->RootValue(state, r));
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "hostile int64"));
}

TEST(ExprProgramTest, ModAndSubstrDefinedOnHostileOperands) {
  Harness h;
  const Row row = {Value::Int64(std::numeric_limits<int64_t>::min()),
                   Value::Double(1e300),
                   Value::Double(std::numeric_limits<double>::infinity()),
                   Value::Double(std::nan("")), Value::String("abc")};
  const ExprPtr min = Col(0, ValueType::kInt64);
  const ExprPtr huge = Col(1, ValueType::kDouble);
  const ExprPtr inf = Col(2, ValueType::kDouble);
  const ExprPtr nan = Col(3, ValueType::kDouble);
  const ExprPtr minus_one = LitV(Value::Int64(-1));
  const ExprPtr seven = LitV(Value::Int64(7));
  const std::vector<ExprPtr> roots = {
      Bin(Expr::BinaryOp::kMod, min, minus_one, ValueType::kInt64),
      Call("mod", {min, minus_one}, ValueType::kInt64),
      Call("mod", {huge, seven}, ValueType::kInt64),
      Bin(Expr::BinaryOp::kMod, seven, inf, ValueType::kInt64),
      Call("mod", {nan, seven}, ValueType::kInt64),
      Call("substr", {Col(4, ValueType::kString), min, LitV(Value::Int64(2))},
           ValueType::kString),
      Call("substr", {Col(4, ValueType::kString), seven, huge},
           ValueType::kString),
  };
  const std::vector<Value> expected = {
      Value::Int64(0), Value::Int64(0),      Value::Null(),     Value::Null(),
      Value::Null(),   Value::String("ab"), Value::String("")};
  auto program = ExprProgram::Compile(roots, nullptr);
  ASSERT_NE(program, nullptr);
  EXPECT_NE(program->ToString().find("  mod "), std::string::npos);
  ExprProgramState state;
  program->InitState(&state);
  program->Bind(&state, row, nullptr, 0);
  program->EvalTrial(&state, row, -1);
  for (size_t r = 0; r < roots.size(); ++r) {
    EXPECT_TRUE(BitEqual(program->RootValue(state, r), expected[r]))
        << roots[r]->ToString() << " = "
        << Describe(program->RootValue(state, r));
  }
  EXPECT_TRUE(h.CheckRow(roots, row, 0, "hostile"));
}

// The disassembly's call table names each site ("call[k]: fn(args)"); this
// returns the opcode of the instruction that runs fn's site.
std::string CallOpcode(const std::string& disasm, const std::string& fn) {
  const size_t at = disasm.find("]: " + fn + "(");
  if (at == std::string::npos) return "";
  const size_t open = disasm.rfind("call[", at) + 5;
  const std::string aux = " aux=" + disasm.substr(open, at - open) + "\n";
  for (const char* op : {"call_num", "call_generic"}) {
    for (size_t pos = disasm.find(std::string("  ") + op + " ");
         pos != std::string::npos;
         pos = disasm.find(std::string("  ") + op + " ", pos + 1)) {
      if (disasm.compare(disasm.find('\n', pos) - aux.size() + 1, aux.size(),
                         aux) == 0) {
        return op;
      }
    }
  }
  return "";
}

// c6 and c7 call their UDFs over numeric columns, so the compiled programs
// take the numeric form instead of boxing every argument.
TEST(ExprProgramTest, ConvivaUdfsRunThroughCallNum) {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());
  ConvivaConfig config;
  auto catalog = MakeConvivaCatalog(config.Scaled(0.01));
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const std::pair<const char*, const char*> cases[] = {
      {"c6", "engagement_score"}, {"c7", "is_hd"}};
  for (const auto& [id, udf] : cases) {
    auto plan = BindSql(FindConvivaQuery(id).sql, **catalog, functions);
    ASSERT_TRUE(plan.ok()) << plan.status();
    int sites = 0;
    for (const Block& block : plan->blocks) {
      std::vector<ExprPtr> roots;
      if (block.filter != nullptr) roots.push_back(block.filter);
      for (const AggSpec& agg : block.aggs) roots.push_back(agg.arg);
      if (roots.empty()) continue;
      auto program = ExprProgram::Compile(roots, nullptr);
      ASSERT_NE(program, nullptr) << id;
      const std::string disasm = program->ToString();
      const std::string op = CallOpcode(disasm, udf);
      if (op.empty()) continue;
      ++sites;
      EXPECT_EQ(op, "call_num") << id << "\n" << disasm;
    }
    EXPECT_EQ(sites, 1) << id;
  }
}

TEST(ExprProgramTest, EvalTrialsMatchesPerTrialLoop) {
  Harness h;
  const ExprPtr filter =
      Bin(Expr::BinaryOp::kGt, AggRef(0, 1, {Col(0, ValueType::kInt64)}),
          LitV(Value::Double(10.0)), ValueType::kInt64);
  const ExprPtr arg0 = Bin(Expr::BinaryOp::kMul, Col(1, ValueType::kDouble),
                           AggRef(0, 2, {Col(0, ValueType::kInt64)}));
  const ExprPtr arg1 = Col(1, ValueType::kDouble);
  const std::vector<ExprPtr> roots = {filter, arg0, arg1};
  auto program = ExprProgram::Compile(roots, nullptr);
  ASSERT_NE(program, nullptr);

  const int trials = 10;
  for (int64_t k = 0; k < 24; ++k) {
    const Row row = {Value::Int64(k), Value::Double(0.5 * (k % 7))};
    ExprProgramState state;
    program->InitState(&state);
    program->Bind(&state, row, &h.resolver, trials);

    std::vector<double> w(trials);
    for (int t = 0; t < trials; ++t) w[t] = t % 3 == 0 ? 0.0 : 1.0 + t;
    const std::vector<double> w_in = w;
    std::vector<TrialArg> vals(static_cast<size_t>(trials) * 2);
    const bool any = program->EvalTrials(&state, row, trials, /*pred_root=*/0,
                                         /*first_val_root=*/1, 2, w.data(),
                                         vals.data());
    EXPECT_EQ(any, std::any_of(w.begin(), w.end(),
                               [](double x) { return x != 0.0; }));
    for (int t = 0; t < trials; ++t) {
      const EvalContext ctx = h.Ctx(t);
      if (w_in[t] == 0.0) {
        EXPECT_EQ(w[t], 0.0);
        continue;
      }
      const bool pass = filter->Eval(row, ctx).IsTruthy();
      EXPECT_EQ(w[t], pass ? w_in[t] : 0.0) << "row " << k << " trial " << t;
      if (pass) {
        EXPECT_TRUE(BitEqual(vals[t * 2], arg0->Eval(row, ctx)));
        EXPECT_TRUE(BitEqual(vals[t * 2 + 1], arg1->Eval(row, ctx)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzzing: random well-typed trees, compiled vs interpreter.
// Magnitudes stay moderate by construction where static-Int64 arithmetic
// truncates (SmallInt), so the truncation never hits the float-cast-overflow
// UB; `%` and mod() are defined on any operand.

class FuzzGen {
 public:
  FuzzGen(Rng* rng, bool allow_agg) : rng_(rng), allow_agg_(allow_agg) {}

  // Columns: 0-3 int64, 4-7 double, 8-9 string.
  static constexpr int kNumCols = 10;

  Row RandomRow() {
    Row row;
    for (int c = 0; c < kNumCols; ++c) {
      if (rng_->NextBounded(4) == 0) {
        row.push_back(Value::Null());
      } else if (c < 4) {
        row.push_back(
            Value::Int64(static_cast<int64_t>(rng_->NextBounded(41)) - 20));
      } else if (c < 8) {
        double v = (rng_->NextDouble() - 0.5) * 100.0;
        if (rng_->NextBounded(8) == 0) v = 0.0;
        row.push_back(Value::Double(v));
      } else {
        static const char* kPool[] = {"", "a", "bb", "apple", "zebra"};
        row.push_back(Value::String(kPool[rng_->NextBounded(5)]));
      }
    }
    return row;
  }

  ExprPtr Num(int depth) {
    if (depth <= 0) return NumLeaf();
    switch (rng_->NextBounded(8)) {
      case 0:
        return NumLeaf();
      case 1:
        return Un(Expr::UnaryOp::kNeg, Num(depth - 1));
      case 2: {
        static const Expr::BinaryOp kOps[] = {
            Expr::BinaryOp::kAdd, Expr::BinaryOp::kSub, Expr::BinaryOp::kMul,
            Expr::BinaryOp::kDiv};
        return Bin(kOps[rng_->NextBounded(4)], Num(depth - 1), Num(depth - 1));
      }
      case 3:
        return SmallInt(std::min(depth - 1, 3));
      case 4:
        return NumCall(depth - 1);
      case 5:
        return Bool(depth - 1);
      case 6:
        if (allow_agg_) return AggLeaf();
        return NumLeaf();
      default:
        return Num(depth - 1);
    }
  }

  // Bounded int64-typed subtree (|value| < ~300): the only place the fuzzer
  // assigns a static Int64 output to arithmetic, keeping truncation casts
  // well inside int64 range.
  ExprPtr SmallInt(int depth) {
    if (depth <= 0) {
      if (rng_->NextBounded(6) == 0) return LitV(Value::Null());
      if (rng_->NextBounded(2) == 0) {
        return LitV(
            Value::Int64(static_cast<int64_t>(rng_->NextBounded(19)) - 9));
      }
      return Col(static_cast<int>(rng_->NextBounded(4)), ValueType::kInt64);
    }
    switch (rng_->NextBounded(4)) {
      case 0:
        return Bin(Expr::BinaryOp::kAdd, SmallInt(depth - 1),
                   SmallInt(depth - 1), ValueType::kInt64);
      case 1:
        return Bin(Expr::BinaryOp::kSub, SmallInt(depth - 1),
                   SmallInt(depth - 1), ValueType::kInt64);
      case 2:
        return Bin(Expr::BinaryOp::kMod, SmallInt(depth - 1),
                   SmallInt(depth - 1), ValueType::kInt64);
      default:
        return SmallInt(0);
    }
  }

  ExprPtr Bool(int depth) {
    if (depth <= 0) {
      return Bin(Expr::BinaryOp::kGt, NumLeaf(), NumLeaf(), ValueType::kInt64);
    }
    static const Expr::BinaryOp kCmps[] = {
        Expr::BinaryOp::kEq, Expr::BinaryOp::kNe, Expr::BinaryOp::kLt,
        Expr::BinaryOp::kLe, Expr::BinaryOp::kGt, Expr::BinaryOp::kGe};
    switch (rng_->NextBounded(5)) {
      case 0:
        return Bin(kCmps[rng_->NextBounded(6)], Num(depth - 1), Num(depth - 1),
                   ValueType::kInt64);
      case 1:
        return Bin(kCmps[rng_->NextBounded(6)], Str(depth - 1), Str(depth - 1),
                   ValueType::kInt64);
      case 2:
        return Bin(Expr::BinaryOp::kAnd, Bool(depth - 1), Bool(depth - 1),
                   ValueType::kInt64);
      case 3:
        return Bin(Expr::BinaryOp::kOr, Bool(depth - 1), Bool(depth - 1),
                   ValueType::kInt64);
      default:
        return Un(Expr::UnaryOp::kNot, Bool(depth - 1), ValueType::kInt64);
    }
  }

  ExprPtr Str(int depth) {
    if (depth <= 0 || rng_->NextBounded(3) == 0) {
      switch (rng_->NextBounded(4)) {
        case 0:
          return Col(8, ValueType::kString);
        case 1:
          return Col(9, ValueType::kString);
        case 2: {
          static const char* kPool[] = {"", "a", "bb", "apple", "zebra"};
          return LitV(Value::String(kPool[rng_->NextBounded(5)]));
        }
        default:
          // NULL literal: drives the string-vs-NULL constant-fold path.
          return LitV(Value::Null());
      }
    }
    switch (rng_->NextBounded(4)) {
      case 0:
        return Call("upper", {Str(depth - 1)}, ValueType::kString);
      case 1:
        return Call("lower", {Str(depth - 1)}, ValueType::kString);
      case 2:
        return Call("concat", {Str(depth - 1), Str(depth - 1)},
                    ValueType::kString);
      default:
        return Call(
            "substr",
            {Col(8, ValueType::kString),
             LitV(Value::Int64(static_cast<int64_t>(rng_->NextBounded(4)))),
             LitV(Value::Int64(static_cast<int64_t>(rng_->NextBounded(4))))},
            ValueType::kString);
    }
  }

 private:
  ExprPtr NumLeaf() {
    switch (rng_->NextBounded(5)) {
      case 0:
        return LitV(Value::Null());
      case 1: {
        // One int64 literal in four lies beyond ±2^53, where every
        // comparison must stay exact (CompareNumbers).
        static const int64_t kWide[] = {
            int64_t{1} << 53, (int64_t{1} << 53) + 1, -(int64_t{1} << 53) - 1,
            (int64_t{1} << 62) + 3, std::numeric_limits<int64_t>::max(),
            std::numeric_limits<int64_t>::min()};
        if (rng_->NextBounded(4) == 0) {
          return LitV(Value::Int64(kWide[rng_->NextBounded(6)]));
        }
        return LitV(
            Value::Int64(static_cast<int64_t>(rng_->NextBounded(19)) - 9));
      }
      case 2:
        return LitV(Value::Double((rng_->NextDouble() - 0.5) * 20.0));
      case 3:
        return Col(static_cast<int>(rng_->NextBounded(4)), ValueType::kInt64);
      default:
        return Col(4 + static_cast<int>(rng_->NextBounded(4)),
                   ValueType::kDouble);
    }
  }

  ExprPtr AggLeaf() {
    const int block = static_cast<int>(rng_->NextBounded(2));
    const int col = 1 + static_cast<int>(rng_->NextBounded(2));
    std::vector<ExprPtr> keys;
    keys.push_back(Col(static_cast<int>(rng_->NextBounded(4)),
                       ValueType::kInt64));
    if (rng_->NextBounded(2) == 0) {
      keys.push_back(
          LitV(Value::Int64(static_cast<int64_t>(rng_->NextBounded(5)))));
    }
    return AggRef(block, col, std::move(keys));
  }

  // Every function with a numeric form.
  ExprPtr NumCall(int depth) {
    static const char* kUnary[] = {"sqrt",  "abs",  "exp",  "log",
                                   "floor", "ceil", "round"};
    switch (rng_->NextBounded(9)) {
      case 0:
        return Call(kUnary[rng_->NextBounded(7)], {Num(depth)});
      case 1:
        return Call("pow", {Num(depth), Num(depth)});
      case 2:
        return Call("mod", {Num(depth), Num(depth)}, ValueType::kInt64);
      case 3:
        return Call("engagement_score", {Num(depth), Num(depth)});
      case 4:
        return Call("is_hd", {Num(depth)}, ValueType::kInt64);
      case 5:
        return Call("least", {Num(depth), Num(depth), Num(depth)});
      case 6:
        return Call("greatest", {Num(depth), Num(depth)});
      case 7:
        return Call("coalesce", {Num(depth), Num(depth)});
      default:
        return Call("if", {Bool(depth), Num(depth), Num(depth)});
    }
  }

  Rng* rng_;
  bool allow_agg_;
};

int FuzzIterations(int default_iters) {
  const char* env = std::getenv("IOLAP_FUZZ_ITERS");
  if (env == nullptr) return default_iters;
  const int v = std::atoi(env);
  return v > 0 ? v : default_iters;
}

TEST(ExprProgramFuzzTest, CompiledBitIdenticalToInterpreter) {
  const int iterations = FuzzIterations(250);
  const int trials = 6;
  Rng rng(20160626);  // SIGMOD'16
  Harness h;
  h.resolver = FakeResolver{4};  // half the trials fall back to main
  int compiled = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    FuzzGen gen(&rng, /*allow_agg=*/iter % 3 != 0);
    std::vector<ExprPtr> roots;
    roots.push_back(gen.Bool(4));  // filter-shaped root first
    const size_t extra = 1 + rng.NextBounded(2);
    for (size_t r = 0; r < extra; ++r) roots.push_back(gen.Num(5));

    auto program = ExprProgram::Compile(roots, nullptr);
    // The generator only produces constructs the compiler covers.
    ASSERT_NE(program, nullptr) << "iter " << iter;
    // Third oracle (besides the interpreter and the bail flag): the static
    // verifier must accept every compiled program. A verifier-accept that
    // then diverges from the interpreter fails the BitEqual asserts below,
    // so accept ∧ divergence is a hard failure of this test.
    const VerifyResult vr = ProgramVerifier::Verify(*program);
    ASSERT_TRUE(vr.ok) << "iter " << iter
                       << ": verifier rejected a compiled program ["
                       << vr.rule << "] " << vr.message << "\n"
                       << program->ToString();
    ++compiled;
    ExprProgramState state;
    program->InitState(&state);

    for (int r = 0; r < 6; ++r) {
      FuzzGen rowgen(&rng, false);
      const Row row = rowgen.RandomRow();
      program->Bind(&state, row, &h.resolver, trials);
      bool row_ok = true;
      for (int t = -1; t < trials && row_ok; ++t) {
        program->EvalTrial(&state, row, t);
        for (size_t root = 0; root < roots.size(); ++root) {
          const Value expect = roots[root]->Eval(row, h.Ctx(t));
          const Value got = program->RootValue(state, root);
          ASSERT_TRUE(BitEqual(expect, got))
              << "iter " << iter << " root " << root << " trial " << t
              << ": interpreter " << Describe(expect) << " vs compiled "
              << Describe(got) << "\n"
              << roots[root]->ToString() << "\n"
              << program->ToString();
        }
      }

      // The engine's batched entry point, with the bool root as the filter.
      std::vector<double> w(trials, 1.0);
      const size_t num_vals = roots.size() - 1;
      std::vector<TrialArg> vals(static_cast<size_t>(trials) * num_vals);
      program->EvalTrials(&state, row, trials, 0, 1, num_vals, w.data(),
                          vals.data());
      for (int t = 0; t < trials; ++t) {
        const EvalContext ctx = h.Ctx(t);
        const bool pass = roots[0]->Eval(row, ctx).IsTruthy();
        ASSERT_EQ(w[t], pass ? 1.0 : 0.0) << "iter " << iter << " trial " << t;
        for (size_t a = 0; pass && a < num_vals; ++a) {
          ASSERT_TRUE(
              BitEqual(vals[t * num_vals + a], roots[a + 1]->Eval(row, ctx)))
              << "iter " << iter << " trial " << t;
        }
      }
    }
  }
  EXPECT_EQ(compiled, iterations);
}

// ---------------------------------------------------------------------------
// Engine level: on the paper's workloads, the programs agree with Expr::Eval
// on a real run's registry, and results do not depend on the thread count.
// The per-batch reference checks (TpchQueryTest, ConvivaQueryTest,
// DeltaEngineTest) cover the rows and values of every batch.

struct RunFingerprint {
  std::vector<Table> partial_rows;
  std::vector<std::vector<std::vector<ErrorEstimate>>> estimates;
  uint64_t recomputed_rows = 0;
  int failure_recoveries = 0;
};

void ExpectBitIdentical(const RunFingerprint& a, const RunFingerprint& b,
                        const std::string& context) {
  EXPECT_EQ(a.recomputed_rows, b.recomputed_rows) << context;
  EXPECT_EQ(a.failure_recoveries, b.failure_recoveries) << context;
  ASSERT_EQ(a.partial_rows.size(), b.partial_rows.size()) << context;
  for (size_t p = 0; p < a.partial_rows.size(); ++p) {
    const Table& ta = a.partial_rows[p];
    const Table& tb = b.partial_rows[p];
    ASSERT_EQ(ta.num_rows(), tb.num_rows()) << context << " batch " << p;
    for (size_t r = 0; r < ta.num_rows(); ++r) {
      ASSERT_EQ(ta.row(r).size(), tb.row(r).size()) << context;
      for (size_t c = 0; c < ta.row(r).size(); ++c) {
        EXPECT_TRUE(BitEqual(ta.row(r)[c], tb.row(r)[c]))
            << context << " batch " << p << " row " << r << " col " << c
            << ": " << ta.row(r)[c].ToString() << " vs "
            << tb.row(r)[c].ToString();
      }
    }
    ASSERT_EQ(a.estimates[p].size(), b.estimates[p].size()) << context;
    for (size_t r = 0; r < a.estimates[p].size(); ++r) {
      ASSERT_EQ(a.estimates[p][r].size(), b.estimates[p][r].size()) << context;
      for (size_t k = 0; k < a.estimates[p][r].size(); ++k) {
        EXPECT_EQ(a.estimates[p][r][k].value, b.estimates[p][r][k].value)
            << context;
        EXPECT_EQ(a.estimates[p][r][k].stddev, b.estimates[p][r][k].stddev)
            << context;
        EXPECT_EQ(a.estimates[p][r][k].ci_lo, b.estimates[p][r][k].ci_lo)
            << context;
        EXPECT_EQ(a.estimates[p][r][k].ci_hi, b.estimates[p][r][k].ci_hi)
            << context;
      }
    }
  }
}

struct WorkloadCase {
  std::string name;
  std::shared_ptr<Catalog> catalog;
  std::string sql;
};

// Every TPC-H and Conviva workload query on a 1% catalog.
std::vector<WorkloadCase> WorkloadCases() {
  std::vector<WorkloadCase> cases;
  for (const BenchQuery& q : TpchQueries()) {
    TpchConfig config;
    auto catalog = MakeTpchCatalog(config.Scaled(0.01), q.streamed_table);
    EXPECT_TRUE(catalog.ok()) << catalog.status();
    if (catalog.ok()) cases.push_back({"tpch_" + q.id, *catalog, q.sql});
  }
  for (const BenchQuery& q : ConvivaQueries()) {
    ConvivaConfig config;
    auto catalog = MakeConvivaCatalog(config.Scaled(0.01));
    EXPECT_TRUE(catalog.ok()) << catalog.status();
    if (catalog.ok()) cases.push_back({"conviva_" + q.id, *catalog, q.sql});
  }
  return cases;
}

EngineOptions WorkloadOptions(size_t num_threads) {
  EngineOptions options;
  options.num_trials = 12;
  options.num_batches = 4;
  options.slack = 2.0;
  options.seed = 77;
  options.num_threads = num_threads;
  return options;
}

std::shared_ptr<FunctionRegistry> WorkloadFunctions() {
  auto functions = FunctionRegistry::Default();
  RegisterConvivaUdfs(functions.get());
  return functions;
}

TEST(ExprProgramEngineTest, ThreadCountBitIdenticalOnWorkloads) {
  const auto functions = WorkloadFunctions();
  const std::vector<WorkloadCase> cases = WorkloadCases();
  ASSERT_GT(cases.size(), 4u);

  for (const WorkloadCase& c : cases) {
    auto run = [&](size_t num_threads) {
      Session session(c.catalog.get(), WorkloadOptions(num_threads),
                      functions);
      RunFingerprint fp;
      auto query = session.Sql(c.sql);
      EXPECT_TRUE(query.ok()) << c.name << ": " << query.status();
      if (!query.ok()) return fp;
      Status run_status = (*query)->Run([&](const PartialResult& partial) {
        fp.partial_rows.push_back(partial.rows);
        fp.estimates.push_back(partial.estimates);
        return BatchAction::kContinue;
      });
      EXPECT_TRUE(run_status.ok()) << c.name << ": " << run_status;
      EXPECT_EQ((*query)->metrics().compile_refusals, 0) << c.name;
      EXPECT_EQ((*query)->metrics().programs_rejected, 0) << c.name;
      fp.recomputed_rows = (*query)->metrics().TotalRecomputedRows();
      fp.failure_recoveries = (*query)->metrics().TotalFailureRecoveries();
      return fp;
    };

    const RunFingerprint inline_run = run(0);
    ASSERT_EQ(inline_run.partial_rows.size(), 4u) << c.name;
    ExpectBitIdentical(inline_run, run(1), c.name + " t1");
    // perfbench's shape: 3 workers and the caller, 4 lanes.
    ExpectBitIdentical(inline_run, run(3), c.name + " t3");
    ExpectBitIdentical(inline_run, run(4), c.name + " t4");
  }
}

// Each workload block's compiled roots against Expr::Eval at trials
// -1..T-1, with a finished run's registry as the resolver (its real trial
// replicas, scales and missing groups). A block's rows are its inputs' rows
// side by side: catalog rows of a base table, output rows of the live
// groups of an upstream block.
TEST(ExprProgramEngineTest, CompiledRootsMatchInterpreterOnWorkloadRegistries) {
  const auto functions = WorkloadFunctions();
  const EngineOptions options = WorkloadOptions(0);
  size_t checked_rows = 0;
  for (const WorkloadCase& c : WorkloadCases()) {
    Session session(c.catalog.get(), options, functions);
    auto query = session.Sql(c.sql);
    ASSERT_TRUE(query.ok()) << c.name << ": " << query.status();
    ASSERT_TRUE((*query)->Run(nullptr).ok()) << c.name;
    const QueryController& controller = (*query)->controller();
    const QueryPlan& plan = controller.plan();
    const AggregateRegistry& registry = *controller.registry();
    const int last_batch = static_cast<int>(controller.num_batches()) - 1;
    auto annotations = AnalyzeUncertainty(plan);
    ASSERT_TRUE(annotations.ok()) << c.name;

    for (const Block& block : plan.blocks) {
      const std::vector<ExprPtr>& lineage =
          (*annotations)[block.id].spj_lineage;
      std::vector<std::vector<ExprPtr>> programs(1);
      if (block.filter != nullptr) programs[0].push_back(block.filter);
      programs[0].insert(programs[0].end(), block.group_by.begin(),
                         block.group_by.end());
      for (const AggSpec& agg : block.aggs) programs[0].push_back(agg.arg);
      if (!block.has_aggregate()) programs.push_back(block.projections);

      // Up to 24 rows, each input's i-th row (strided through a table).
      std::vector<Row> rows(24);
      for (const BlockInput& input : block.inputs) {
        std::vector<Row> source;
        if (input.kind == BlockInput::Kind::kBaseTable) {
          const Table& table = *(*c.catalog->Find(input.table_name))->table;
          for (size_t i = 0; i < rows.size() && table.num_rows() > 0; ++i) {
            source.push_back(table.row((i * 7919) % table.num_rows()));
          }
        } else {
          for (const auto& group :
               registry.LiveGroups(input.source_block, last_batch)) {
            if (source.size() == rows.size()) break;
            source.push_back(registry.OutputRow(input.source_block, group));
          }
        }
        rows.resize(std::min(rows.size(), source.size()));
        for (size_t i = 0; i < rows.size(); ++i) {
          rows[i].insert(rows[i].end(), source[i].begin(), source[i].end());
        }
      }

      for (const std::vector<ExprPtr>& roots : programs) {
        if (roots.empty()) continue;
        ProgramVerifierStats stats;
        auto program = CompileVerified(roots, &lineage, &stats);
        ASSERT_NE(program, nullptr)
            << c.name << " block " << block.id << ": " << stats.last_refusal
            << stats.last_rejection;
        ExprProgramState state;
        program->InitState(&state);
        for (const Row& row : rows) {
          ASSERT_EQ(row.size(), block.spj_schema.num_columns()) << c.name;
          program->Bind(&state, row, &registry, options.num_trials);
          for (int t = -1; t < options.num_trials; ++t) {
            program->EvalTrial(&state, row, t);
            EvalContext ctx;
            ctx.resolver = &registry;
            ctx.column_lineage = &lineage;
            ctx.trial = t;
            for (size_t r = 0; r < roots.size(); ++r) {
              const Value expect = roots[r]->Eval(row, ctx);
              const Value got = program->RootValue(state, r);
              ASSERT_TRUE(BitEqual(expect, got))
                  << c.name << " block " << block.id << " root " << r
                  << " trial " << t << ": interpreter " << Describe(expect)
                  << " vs compiled " << Describe(got) << "\n"
                  << roots[r]->ToString();
            }
          }
          ++checked_rows;
        }
      }
    }
  }
  EXPECT_GT(checked_rows, 500u);
}

// A user function declared numeric that returns a string reads as NULL in
// an engine run too: count() over it counts nothing.
TEST(ExprProgramEngineTest, CallResultOutsideItsStaticTypeIsNullInARun) {
  auto functions = WorkloadFunctions();
  ASSERT_TRUE(functions
                  ->RegisterScalar(
                      {.name = "bad_num",
                       .signature = {.params = {ParamKind::kNumeric},
                                     .result = ValueType::kDouble},
                       .boxed = [](const Value*, size_t) {
                         return Value::String("oops");
                       }})
                  .ok());
  ConvivaConfig config;
  auto catalog = MakeConvivaCatalog(config.Scaled(0.01));
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  Session session(catalog->get(), WorkloadOptions(0), functions);
  auto query = session.Sql(
      "SELECT count(bad_num(play_time)), count(*) FROM sessions");
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_TRUE((*query)->Run(nullptr).ok());
  const Table& rows = (*query)->last_result().rows;
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.row(0)[0].AsDouble(), 0.0);
  EXPECT_GT(rows.row(0)[1].AsDouble(), 0.0);
}

// In a run, coalesce(NULL, x) and if(c, NULL, x) return x: each sum below
// equals the one written without the NULL candidate, in every batch.
TEST(ExprProgramEngineTest, NullTypedArgumentsLeaveTheOtherCandidatesInARun) {
  ConvivaConfig config;
  auto catalog = MakeConvivaCatalog(config.Scaled(0.01));
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  Session session(catalog->get(), WorkloadOptions(0), WorkloadFunctions());
  auto query = session.Sql(
      "SELECT sum(coalesce(NULL, play_time)), sum(play_time), "
      "sum(if(play_time > 100, NULL, play_time)), "
      "sum(if(play_time > 100, 0, play_time)) FROM sessions");
  ASSERT_TRUE(query.ok()) << query.status();
  int batches = 0;
  ASSERT_TRUE((*query)
                  ->Run([&](const PartialResult& partial) {
                    ++batches;
                    const Row& row = partial.rows.row(0);
                    EXPECT_TRUE(BitEqual(row[0], row[1])) << partial.batch;
                    EXPECT_TRUE(BitEqual(row[2], row[3])) << partial.batch;
                    EXPECT_GT(row[2].AsDouble(), 0.0) << partial.batch;
                    return BatchAction::kContinue;
                  })
                  .ok());
  EXPECT_GT(batches, 0);
}

}  // namespace
}  // namespace iolap
