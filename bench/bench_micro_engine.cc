// Micro-benchmarks (google-benchmark) of the engine's hot paths: the
// per-tuple costs the figure benches aggregate. Useful for regression
// tracking and for understanding where per-batch time goes.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "bootstrap/error_estimate.h"
#include "bootstrap/poisson_multiplicities.h"
#include "bootstrap/trial_accumulator.h"
#include "common/random.h"
#include "core/expr.h"
#include "exec/expr_program.h"
#include "exec/hash_aggregate.h"
#include "exec/operators.h"
#include "workloads/experiment_driver.h"

namespace iolap {
namespace {

// Arithmetic + comparison expression evaluation over a row.
void BM_ExprEval(benchmark::State& state) {
  EvalContext ctx;
  // (price * (1 - discount)) > 1000 AND quantity < 24
  auto expr = And(Gt(Mul(Col(0, "price", ValueType::kDouble),
                         Sub(Lit(1.0), Col(1, "discount", ValueType::kDouble))),
                     Lit(1000.0)),
                  Lt(Col(2, "quantity", ValueType::kDouble), Lit(24.0)));
  Row row = {Value::Double(1500), Value::Double(0.05), Value::Double(10)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->Eval(row, ctx));
  }
}
BENCHMARK(BM_ExprEval);

// The per-trial hot loop of an uncertain row, interpreter vs compiled
// program. Workload shape: a filter referencing an upstream aggregate (the
// trial-variant part) over a trial-invariant arithmetic subexpression, plus
// two aggregate arguments — what the delta engine evaluates per pending row
// per batch. The compiled variant binds once (hoisted prologue + one
// batched probe) and replays only the epilogue per trial.
class TrialResolver final : public AggLookupResolver {
 public:
  Value Lookup(int, int, const Row&) const override {
    return Value::Double(937.5);
  }
  Value LookupTrial(int, int, const Row&, int trial) const override {
    return Value::Double(937.5 + 0.25 * trial);
  }
  void LookupTrials(int, int, const Row&, int num_trials,
                    Value* out) const override {
    for (int t = 0; t < num_trials; ++t) {
      out[t] = Value::Double(937.5 + 0.25 * t);
    }
  }
  Interval LookupRange(int, int, const Row&) const override {
    return Interval::Unbounded();
  }
};

std::vector<ExprPtr> HotLoopRoots() {
  auto revenue = Mul(Col(0, "price", ValueType::kDouble),
                     Sub(Lit(1.0), Col(1, "discount", ValueType::kDouble)));
  auto lookup = std::make_shared<AggLookupExpr>(
      0, 1, std::vector<ExprPtr>{Col(3, "key", ValueType::kInt64)},
      ValueType::kDouble, "avg_rev");
  // roots[0] = filter, roots[1..2] = aggregate arguments.
  return {And(Gt(revenue, ExprPtr(lookup)),
              Lt(Col(2, "quantity", ValueType::kDouble), Lit(24.0))),
          revenue, Col(2, "quantity", ValueType::kDouble)};
}

const Row kHotLoopRow = {Value::Double(1500), Value::Double(0.05),
                         Value::Double(10), Value::Int64(7)};

void BM_ExprProgramInterpreter(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  TrialResolver resolver;
  EvalContext ctx;
  ctx.resolver = &resolver;
  const std::vector<ExprPtr> roots = HotLoopRoots();
  for (auto _ : state) {
    for (int t = 0; t < trials; ++t) {
      ctx.trial = t;
      if (roots[0]->Eval(kHotLoopRow, ctx).IsTruthy()) {
        benchmark::DoNotOptimize(roots[1]->Eval(kHotLoopRow, ctx));
        benchmark::DoNotOptimize(roots[2]->Eval(kHotLoopRow, ctx));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_ExprProgramInterpreter)->Arg(20)->Arg(100);

void BM_ExprProgramCompiled(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  TrialResolver resolver;
  const std::vector<ExprPtr> roots = HotLoopRoots();
  auto program = ExprProgram::Compile(roots, nullptr);
  if (program == nullptr) {
    state.SkipWithError("hot-loop roots did not compile");
    return;
  }
  ExprProgramState prog_state;
  program->InitState(&prog_state);
  std::vector<double> weights(trials);
  std::vector<TrialArg> args(static_cast<size_t>(trials) * 2);
  for (auto _ : state) {
    program->Bind(&prog_state, kHotLoopRow, &resolver, trials);
    for (int t = 0; t < trials; ++t) weights[t] = 1.0;
    program->EvalTrials(&prog_state, kHotLoopRow, trials, /*pred_root=*/0,
                        /*first_val_root=*/1, 2, weights.data(),
                        args.data());
    benchmark::DoNotOptimize(args.data());
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_ExprProgramCompiled)->Arg(20)->Arg(100);

// The §5 classification check: interval comparison against a variation
// range — the per-tuple cost of tuple-uncertainty partitioning.
void BM_ClassifyPredicate(benchmark::State& state) {
  class FixedResolver final : public AggLookupResolver {
   public:
    Value Lookup(int, int, const Row&) const override {
      return Value::Double(37.0);
    }
    Value LookupTrial(int, int, const Row&, int) const override {
      return Value::Double(37.0);
    }
    Interval LookupRange(int, int, const Row&) const override {
      return Interval(21.1, 53.9);
    }
  };
  static FixedResolver resolver;
  EvalContext ctx;
  ctx.resolver = &resolver;
  auto lookup = std::make_shared<AggLookupExpr>(0, 0, std::vector<ExprPtr>{},
                                                ValueType::kDouble, "avg");
  auto pred = Gt(Col(0, "buffer_time", ValueType::kDouble), ExprPtr(lookup));
  Row row = {Value::Double(58.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClassifyPredicate(*pred, row, ctx));
  }
}
BENCHMARK(BM_ClassifyPredicate);

// Deterministic Poisson(1) bootstrap weights for one row across trials.
void BM_PoissonWeights(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  BootstrapWeights weights(42, trials);
  uint64_t uid = 0;
  for (auto _ : state) {
    int sum = 0;
    for (int t = 0; t < trials; ++t) sum += weights.WeightAt(uid, t);
    benchmark::DoNotOptimize(sum);
    ++uid;
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_PoissonWeights)->Arg(20)->Arg(100);

// The aggregates of a row with `n` of them: avg alone, or q1's mix of
// sums, averages and a count.
std::vector<const AggregateFunction*> RowAggregates(
    const FunctionRegistry& functions, int n) {
  static const char* const kQ1[] = {"sum", "sum", "sum", "sum",
                                    "avg", "avg", "count"};
  std::vector<const AggregateFunction*> out;
  for (int a = 0; a < n; ++a) {
    out.push_back(*functions.FindAggregate(n == 1 ? "avg" : kQ1[a % 7]));
  }
  return out;
}

constexpr int kRowsPerFlush = 256;

// A batch of streamed rows' weights per trial, as the evaluate phase writes
// them: row r's real Poisson weights at [r * trials, (r + 1) * trials).
void StreamedWeights(const BootstrapWeights& bootstrap, uint64_t first_uid,
                     double* w) {
  const int trials = bootstrap.num_trials();
  for (int r = 0; r < kRowsPerFlush; ++r) {
    for (int t = 0; t < trials; ++t) {
      w[r * trials + t] = 1.0 * bootstrap.WeightAt(first_uid + r, t);
    }
  }
}

// Folding tuples into a sketch across all bootstrap trials, as the engine
// does: the rows' weights per trial and AddMainOnly per aggregate, then
// the trial flush (FoldRowTrials, main arguments) over a batch of rows.
// Args: trials, aggregates per row. Items are rows.
void BM_TrialAccumulate(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  const int num_aggs = static_cast<int>(state.range(1));
  const auto functions = FunctionRegistry::Default();
  std::vector<TrialAccumulatorSet> accs;
  for (const AggregateFunction* fn : RowAggregates(*functions, num_aggs)) {
    accs.emplace_back(*fn, trials);
  }
  const BootstrapWeights bootstrap(42, trials);
  std::vector<double> w(static_cast<size_t>(kRowsPerFlush) * trials);
  std::vector<TrialWeight> scratch(static_cast<size_t>(trials));
  const std::vector<Value> args(static_cast<size_t>(num_aggs),
                                Value::Double(3.25));
  uint64_t uid = 0;
  for (auto _ : state) {
    StreamedWeights(bootstrap, uid, w.data());
    uid += kRowsPerFlush;
    for (int r = 0; r < kRowsPerFlush; ++r) {
      for (int a = 0; a < num_aggs; ++a) accs[a].AddMainOnly(args[a], 1.0);
    }
    for (int r = 0; r < kRowsPerFlush; ++r) {
      FoldRowTrials(accs.data(), accs.size(), args.data(), nullptr,
                    w.data() + static_cast<size_t>(r) * trials, 0, trials,
                    scratch.data());
    }
    benchmark::DoNotOptimize(accs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRowsPerFlush);
}
BENCHMARK(BM_TrialAccumulate)
    ->Args({0, 1})
    ->Args({20, 1})
    ->Args({100, 1})
    ->Args({20, 7})
    ->Args({100, 7});

// One cell's error estimate from its bootstrap replicas, as the result
// build makes it for every estimated cell every batch: mean, stddev and the
// two CI percentiles. A scale-linear cell (SUM) multiplies each replica by
// m_i inside the pass; a scale-invariant one (AVG) does not. Args: trials,
// scaled (0/1). Items are cells.
void BM_EstimateError(benchmark::State& state) {
  const int trials = static_cast<int>(state.range(0));
  const double scale = state.range(1) != 0 ? 2.75 : 1.0;
  Rng rng(5);
  std::vector<double> replicas(static_cast<size_t>(trials));
  for (double& x : replicas) x = 100.0 + 10.0 * rng.NextGaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateError(100.0 * scale, replicas, scale));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimateError)
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({100, 0})
    ->Args({100, 1});

// Incremental hash-join probe (dimension-cache lookup) by a prefix row,
// whose join column 0 is the key.
void BM_JoinProbe(benchmark::State& state) {
  JoinStep step({0}, {0}, /*input_grows=*/false);
  RowBatch dim;
  for (int i = 0; i < 1000; ++i) {
    ExecRow row;
    row.values = {Value::Int64(i), Value::String("payload")};
    dim.push_back(row);
  }
  RowBatch out;
  step.ProcessBatch({}, dim, &out);
  int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(step.ProbeCount(dim[key % 1000]));
    ++key;
  }
}
BENCHMARK(BM_JoinProbe);

// Group lookup + accumulate in the grouped sketch over 64 groups: the rows'
// weights per trial, the main values in the apply phase, then the trial
// flush (FoldRowTrials) with real Poisson weights over 20 trials. Arg:
// aggregates per row. Items are rows.
void BM_GroupedAggregate(benchmark::State& state) {
  constexpr int kTrials = 20;
  const int num_aggs = static_cast<int>(state.range(0));
  const auto functions = FunctionRegistry::Default();
  std::vector<AggSpec> specs;
  for (const AggregateFunction* fn : RowAggregates(*functions, num_aggs)) {
    specs.push_back(AggSpec{fn, Col(0, "x", ValueType::kDouble), "a"});
  }
  GroupedAggregateState groups(&specs, kTrials);
  const BootstrapWeights bootstrap(42, kTrials);
  std::vector<double> w(kRowsPerFlush * kTrials);
  std::vector<TrialWeight> scratch(kTrials);
  std::vector<TrialAccumulatorSet*> row_accs(kRowsPerFlush);
  const std::vector<Value> args(static_cast<size_t>(num_aggs),
                                Value::Double(1.5));
  uint64_t uid = 0;
  for (auto _ : state) {
    StreamedWeights(bootstrap, uid, w.data());
    for (int r = 0; r < kRowsPerFlush; ++r) {
      const int64_t group = static_cast<int64_t>(uid++ % 64);
      auto& cells = groups.GetOrCreate({Value::Int64(group)}, 0);
      row_accs[r] = cells.aggs.data();
      for (int a = 0; a < num_aggs; ++a) {
        cells.aggs[a].AddMainOnly(args[a], 1.0);
      }
    }
    for (int r = 0; r < kRowsPerFlush; ++r) {
      FoldRowTrials(row_accs[r], args.size(), args.data(), nullptr,
                    w.data() + r * kTrials, 0, kTrials, scratch.data());
    }
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(groups.num_groups());
  state.SetItemsProcessed(state.iterations() * kRowsPerFlush);
}
BENCHMARK(BM_GroupedAggregate)->Arg(1)->Arg(7);

// End-to-end per-batch engine cost under intra-batch parallelism: each
// iteration runs one full incremental query with EngineOptions::num_threads
// = Arg (workers; the driving thread is one more lane). Results are
// bit-identical across thread counts; only wall time changes. The
// per_batch_ms counter is the engine's own per-batch wall clock and
// cpu_over_wall its measured parallelism (≈1 inline, → num_threads + 1
// when the batch scales).
void RunEngineBatch(benchmark::State& state, const BenchQuery& query,
                    bool conviva) {
  auto catalog = CatalogFor(query, conviva);
  if (!catalog.ok()) {
    state.SkipWithError(catalog.status().ToString().c_str());
    return;
  }
  EngineOptions options = BenchOptions(ExecutionMode::kIolap);
  options.num_threads = static_cast<size_t>(state.range(0));
  double wall = 0.0;
  double cpu = 0.0;
  size_t batches = 0;
  for (auto _ : state) {
    auto outcome = RunBenchQuery(*catalog, query, options);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(outcome->final_result.rows.num_rows());
    wall += outcome->metrics.TotalLatencySec();
    cpu += outcome->metrics.TotalCpuSec();
    batches += outcome->metrics.batches.size();
  }
  if (batches > 0) {
    state.counters["per_batch_ms"] = 1e3 * wall / static_cast<double>(batches);
    state.counters["cpu_over_wall"] = wall > 0.0 ? cpu / wall : 0.0;
  }
}

// The first nested TPC-H query (q11): a batch's rows are few, so it shows
// what a batch with little to split pays for the pool.
void BM_EngineBatch(benchmark::State& state) {
  const std::vector<BenchQuery> queries = TpchQueries();
  BenchQuery query = queries.front();
  for (const BenchQuery& q : queries) {
    if (q.nested) {
      query = q;
      break;
    }
  }
  RunEngineBatch(state, query, /*conviva=*/false);
}
BENCHMARK(BM_EngineBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Conviva c10: its outer block's non-deterministic set outnumbers the fresh
// rows of a batch, and each of those rows runs per trial, so a batch has
// work to split. Arg 3 is perfbench's shape on 4 CPUs.
void BM_EngineBatchC10(benchmark::State& state) {
  for (const BenchQuery& q : ConvivaQueries()) {
    if (q.id == "c10") {
      RunEngineBatch(state, q, /*conviva=*/true);
      return;
    }
  }
  state.SkipWithError("no query c10");
}
BENCHMARK(BM_EngineBatchC10)
    ->Arg(0)
    ->Arg(1)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Console output as usual, plus every run appended to BENCH_micro.json in
// the uniform schema (per-iteration seconds; rows_per_sec from
// SetItemsProcessed where the bench declares an item count).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  // OO_Tabular (not OO_Defaults): the default forces ANSI color even when
  // stdout is redirected into bench_results/*.txt.
  explicit JsonTeeReporter(bench::JsonWriter* json)
      : ConsoleReporter(OO_Tabular), json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      double rows_per_sec = 0.0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rows_per_sec = it->second;
      json_->Add(run.benchmark_name(), run.real_accumulated_time / iters,
                 run.cpu_accumulated_time / iters, rows_per_sec,
                 static_cast<size_t>(run.threads));
    }
  }

 private:
  bench::JsonWriter* json_;
};

}  // namespace
}  // namespace iolap

int main(int argc, char** argv) {
  // --benchmark_context=key=value,... heads the console output and becomes
  // BENCH_micro.json's "context" row, so a snapshot can record the build
  // type, nproc and git sha it was taken with.
  std::string context;
  const std::string flag = "--benchmark_context=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).starts_with(flag)) {
      context = std::string(argv[i]).substr(flag.size());
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  iolap::bench::JsonWriter json("BENCH_micro.json");
  if (!context.empty()) json.SetContext(context);
  iolap::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.Flush() ? 0 : 1;
}
