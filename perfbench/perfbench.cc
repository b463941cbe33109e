// perfbench: the end-to-end benchmark of the iOLAP engine (README.md beside
// this file lists every metric, workload and how to open the trace).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out DIR] [--git-sha SHA] [--corrupt-expected]
//
// One process plays one analyst: a closed loop with a single client that
// runs the workload's queries one after another, each to completion, first
// in iOLAP mode and then as batch OLAP (ExecutionMode::kBaseline). The
// observer never stops a query early. Each pass is a round with its own
// inputs drawn from the seed (see RoundSeed). One warm-up pass (which also
// checks the 10% answers against the reference evaluator) is discarded;
// measured passes repeat until S seconds have passed.
//
// All timing is taken here, from outside the engine, around the public
// entry points: Session::Sql, QueryController::Init, IncrementalQuery::Run
// and the per-batch ResultObserver callback. The engine's own latency_sec
// is only read to split a delivery gap into engine time and the rest.
//
// The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every run passed its checks.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/reference.h"
#include "iolap/session.h"
#include "sql/binder.h"
#include "trace.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using iolap::BatchAction;
using iolap::BenchQuery;
using iolap::Catalog;
using iolap::EngineOptions;
using iolap::ExecutionMode;
using iolap::PartialResult;
using iolap::QueryMetrics;
using iolap::Row;
using iolap::Table;

// Settings shared by every workload.
constexpr size_t kBatches = 25;
constexpr int kTrials = 60;
constexpr double kSlack = 2.0;
// Relative tolerance of every answer check, as in the engine tests.
constexpr double kRelTol = 1e-7;
// The early answer timed as time_to_10pct_s and checked against the
// reference evaluator.
constexpr double kEarlyFraction = 0.10;

struct Workload {
  const char* name;
  bool conviva;
  std::vector<std::string> queries;
  // Intra-batch worker threads: nproc - 1 (plus the driving thread) when
  // set, inline execution otherwise.
  bool threaded;
  // Dataset size relative to the generator defaults (scale 1: lineorder
  // 60,000 rows, sessions 80,000 rows).
  double scale = 1.0;
  // Averages each query's rounds with the mean rather than the median. Set
  // where recoveries are the workload: the mean charges each round's
  // recovery in proportion to how often it happens, while the median shows
  // a round without one, or jumps between the two when about half the
  // rounds recover (q20's time to 10% does). Elsewhere the median keeps a
  // rare recovery storm (3 s against 0.2 s for c6) in one or two of a
  // run's seven rounds from swamping the run.
  bool mean_over_rounds = false;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"tpch-manygroups", false, {"q18", "q11"}, false},
      {"tpch-simple", false, {"q1", "q3", "q5", "q6", "q7"}, false},
      // Whether and when q17 and q20 recover varies from round to round,
      // and a restart late in the run replays most of it. A steady mean
      // needs about 90 rounds, which a 25-second run reaches at a quarter
      // of the default size; q20 still recovers in most rounds there.
      {"tpch-recovery", false, {"q17", "q20"}, false, 0.25, true},
      {"conviva-threads", true, {"c1", "c2", "c6", "c8", "c10"}, true},
  };
  return kAll;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Host speed. The benchmark runs on a few cores of a shared host whose
// speed drifts by up to ~1.5x for minutes at a time; CPU time moves with
// wall time, and integer, cache and memory work slow down together. Such a
// phase can cover whole runs, so no statistic over one run absorbs it.
// Each timed execution is therefore preceded by a fixed calibration kernel
// that uses none of the engine's code, and every end-to-end timing of a
// pass is divided by that pass's host factor: the median kernel time over
// kCalibrationNominalS. End-to-end timings thus read in seconds of a host
// running at nominal speed; the raw wall times stay in the result file.

// Median kernel time on a quiet 4-vCPU host (about 1.0x).
constexpr double kCalibrationNominalS = 1.2e-3;
// Kernel repetitions before each timed execution.
constexpr int kCalibrationReps = 3;

uint64_t NextRandom(uint64_t* x) {
  *x = *x * 6364136223846793005ULL + 1442695040888963407ULL;
  return *x >> 17;
}

// The kernel: a hash-table build and probe, a sort, and random updates of
// an 8 MB array, the kinds of work a query engine does. Returns its wall
// time in seconds.
double CalibrationSeconds() {
  static std::vector<uint64_t> memory(1 << 20);
  static volatile uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  uint64_t x = 42;
  std::unordered_map<uint64_t, uint64_t> map;
  map.reserve(1 << 12);
  for (int i = 0; i < (1 << 12); ++i) map[NextRandom(&x) & 0xffff] += i;
  uint64_t sum = 0;
  for (int i = 0; i < (1 << 14); ++i) {
    const auto it = map.find(NextRandom(&x) & 0xffff);
    if (it != map.end()) sum += it->second;
  }
  std::vector<double> values(1 << 13);
  for (double& v : values) v = static_cast<double>(NextRandom(&x) % 100000);
  std::sort(values.begin(), values.end());
  for (int i = 0; i < (1 << 15); ++i) {
    memory[NextRandom(&x) & (memory.size() - 1)] += x;
  }
  sink = sink + sum + static_cast<uint64_t>(values[values.size() / 2]) +
         memory[x & (memory.size() - 1)];
  return Seconds(Clock::now() - start);
}

// Resets this process's peak resident set (VmHWM) to its current RSS, so
// that each round's peak reads on its own. Where the kernel refuses, the
// peak covers the process so far.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty input.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// 0 for an empty input.
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Empty when `actual` equals `expected` within kRelTol, else the first
// difference.
std::string CompareTables(const Table& actual, const Table& expected) {
  if (actual.num_rows() != expected.num_rows()) {
    return std::to_string(actual.num_rows()) + " rows, expected " +
           std::to_string(expected.num_rows());
  }
  for (size_t r = 0; r < actual.num_rows(); ++r) {
    const Row& a = actual.row(r);
    const Row& e = expected.row(r);
    if (a.size() != e.size()) return "row " + std::to_string(r) + " width";
    for (size_t c = 0; c < a.size(); ++c) {
      bool same = false;
      if (a[c].is_numeric() && e[c].is_numeric()) {
        const double ev = e[c].AsDouble();
        same = std::fabs(a[c].AsDouble() - ev) <=
               kRelTol * std::max(1.0, std::fabs(ev));
      } else {
        same = a[c].Equals(e[c]);
      }
      if (!same) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": " + a[c].ToString() + " vs " + e[c].ToString();
      }
    }
  }
  return "";
}

// A copy of `table` with its first numeric cell moved off by far more than
// kRelTol: the deliberately wrong expected answer of --corrupt-expected.
Table Corrupted(const Table& table) {
  Table out(table.schema());
  bool done = false;
  for (Row row : table.rows()) {
    for (iolap::Value& v : row) {
      if (!done && v.is_numeric()) {
        v = iolap::Value::Double(v.AsDouble() * 1.001 + 1.0);
        done = true;
      }
    }
    out.AddRow(std::move(row));
  }
  if (!done) {
    out.AddRow(Row(table.schema().num_columns(), iolap::Value::Double(1.0)));
  }
  return out;
}

// One round of one query: its timed iOLAP execution and the baseline run
// on the same inputs.
struct Sample {
  double baseline_s = 0.0;
  double sql_s = 0.0;
  double init_s = 0.0;
  // Run() wall time minus the benchmark's own observer time.
  double run_s = 0.0;
  double cpu_s = 0.0;
  double observer_s = 0.0;
  // Per delivery: from the previous observer exit (or Run start) to this
  // observer entry, so the benchmark's own time is never inside a gap.
  std::vector<double> gap_s;
  std::vector<double> fraction;
  QueryMetrics metrics;
  // The pass's host factor (see CalibrationSeconds); end-to-end timings
  // divide the wall times above by it.
  double host = 1.0;
  // Read from the controller inside the observer, on traced passes only.
  size_t pending_peak = 0;
  size_t ring_bytes_peak = 0;
  uint64_t result_cells = 0;

  double TimeToFraction(double f) const {
    double t = 0.0;
    for (size_t k = 0; k < gap_s.size(); ++k) {
      t += gap_s[k];
      if (fraction[k] >= f) return t;
    }
    return t;
  }
};

// Per query: one sample per round of one kind of pass.
using QuerySamples = std::vector<Sample>;

// A metric value with the quartiles and sample count behind it.
struct Stat {
  double value = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
  std::string note;
};

struct Metric {
  std::string name;
  std::string unit;
  std::string better;
  Stat stat;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = "perfbench-out";
  std::string git_sha = "unknown";
  bool corrupt_expected = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      args->corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || s < 1 || s > 600) {
        return false;
      }
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

class Bench {
 public:
  Bench(const Workload& workload, const Args& args)
      : workload_(workload),
        args_(args),
        threads_(workload.threaded
                     ? std::max(1u, std::thread::hardware_concurrency()) - 1
                     : 0),
        functions_(iolap::FunctionRegistry::Default()),
        trace_(args.trace) {
    if (workload.threaded && threads_ == 0) threads_ = 1;
    iolap::RegisterConvivaUdfs(functions_.get());
    for (const std::string& id : workload.queries) {
      queries_.push_back(workload.conviva ? iolap::FindConvivaQuery(id)
                                          : iolap::FindTpchQuery(id));
    }
  }

  int Main();

 private:
  enum class Pass { kWarmup, kUntraced, kTraced };

  // Each round draws its own inputs from --seed: a fresh dataset from the
  // generator and a fresh engine seed (bootstrap weights, batch layout).
  // Medians over rounds then describe the workload rather than one draw
  // of it; whether and how often a nested query recovers depends on the
  // draw.
  uint64_t RoundSeed() const { return args_.seed * 1000 + round_; }

  EngineOptions Options(ExecutionMode mode) const {
    EngineOptions options;
    options.mode = mode;
    options.num_trials = kTrials;
    options.num_batches = kBatches;
    options.slack = kSlack;
    options.seed = RoundSeed();
    options.num_threads = threads_;
    return options;
  }

  bool Generate(Pass pass);
  void RunPass(Pass pass, uint64_t round);
  void Calibrate() {
    for (int i = 0; i < kCalibrationReps; ++i) {
      calibration_s_.push_back(CalibrationSeconds());
    }
  }
  bool RunIolap(size_t q, Pass pass, Sample* sample, Table* final_rows);
  bool RunBaseline(size_t q, double* run_s, Table* final_rows);
  std::string CheckEarly(size_t q, iolap::QueryController& controller,
                         const Table& early_rows, int early_batch) const;
  const Catalog& CatalogOf(size_t q) const {
    return *catalogs_.at(queries_[q].streamed_table);
  }

  std::vector<Metric> EndToEnd(bool wall) const;
  std::vector<Metric> PerLayer() const;
  std::string Metadata(size_t passes) const;
  std::string PerQueryJson(bool rounds) const;
  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  const Workload& workload_;
  const Args& args_;
  size_t threads_;
  std::shared_ptr<iolap::FunctionRegistry> functions_;
  std::vector<BenchQuery> queries_;
  // One catalog per streamed relation the workload's queries name.
  std::map<std::string, std::shared_ptr<Catalog>> catalogs_;
  // Generation time of each measured round, summed over its catalogs, in
  // wall seconds and divided by the round's host factor.
  std::vector<double> generate_s_;
  std::vector<double> generate_norm_s_;
  // Kernel times of the pass in progress, and the host factor of each
  // measured untraced pass.
  std::vector<double> calibration_s_;
  std::vector<double> host_factors_;
  // Peak resident set of each untraced measured round.
  std::vector<double> peak_rss_mb_;
  Trace trace_;
  int next_run_id_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  size_t passes_[3] = {0, 0, 0};
  // The round whose inputs catalogs_ holds (see RoundSeed); the warm-up
  // pass is round 0.
  uint64_t round_ = 0;
  // Indexed by query; untraced_ feeds the end-to-end metrics and traced_
  // the per-layer ones.
  std::vector<QuerySamples> untraced_;
  std::vector<QuerySamples> traced_;
};

bool Bench::Generate(Pass pass) {
  std::set<std::string> streamed;
  for (const BenchQuery& query : queries_) streamed.insert(query.streamed_table);
  catalogs_.clear();
  ResetPeakRss();
  double total = 0.0;
  for (const std::string& table : streamed) {
    const Clock::time_point start = Clock::now();
    auto catalog = [&] {
      if (workload_.conviva) {
        iolap::ConvivaConfig config = iolap::ConvivaConfig{}.Scaled(workload_.scale);
        config.seed = RoundSeed();
        return iolap::MakeConvivaCatalog(config);
      }
      iolap::TpchConfig config = iolap::TpchConfig{}.Scaled(workload_.scale);
      config.seed = RoundSeed();
      return iolap::MakeTpchCatalog(config, table);
    }();
    const Clock::time_point end = Clock::now();
    if (!catalog.ok()) {
      Fail("generating " + table + ": " + catalog.status().ToString());
      return false;
    }
    catalogs_[table] = *catalog;
    total += Seconds(end - start);
    trace_.Span("workloads.generate", start, end, -1,
                "\"streamed\": \"" + table + "\", \"round\": " +
                    std::to_string(round_));
  }
  if (pass != Pass::kWarmup) generate_s_.push_back(total);
  return true;
}

std::string Bench::CheckEarly(size_t q, iolap::QueryController& controller,
                              const Table& early_rows, int early_batch) const {
  if (early_batch < 0) return "no partial result reached 10% of the data";
  const BenchQuery& query = queries_[q];
  const Catalog& catalog = CatalogOf(q);
  auto plan = iolap::BindSql(query.sql, catalog, functions_);
  if (!plan.ok()) return plan.status().ToString();
  auto entry = catalog.Find(query.streamed_table);
  if (!entry.ok()) return entry.status().ToString();
  const Table& fact = *(*entry)->table;
  // D_i: the rows of batches 0..i, as the controller's layout placed them.
  std::vector<Row> accumulated;
  for (int b = 0; b <= early_batch; ++b) {
    for (uint64_t id : controller.layout().batches[b]) {
      accumulated.push_back(fact.row(id));
    }
  }
  const double scale = static_cast<double>(fact.num_rows()) /
                       static_cast<double>(std::max<size_t>(1, accumulated.size()));
  auto expected =
      iolap::EvaluateReference(*plan, catalog, accumulated, scale);
  if (!expected.ok()) return expected.status().ToString();
  const std::string diff = CompareTables(early_rows, *expected);
  return diff.empty() ? "" : "batch " + std::to_string(early_batch) + ": " + diff;
}

bool Bench::RunIolap(size_t q, Pass pass, Sample* s, Table* final_rows) {
  const BenchQuery& query = queries_[q];
  const bool traced = pass == Pass::kTraced;
  const int run_id = next_run_id_++;
  const std::string id_arg = "\"query\": \"" + query.id + "\"";
  Calibrate();

  iolap::Session session(&CatalogOf(q), Options(ExecutionMode::kIolap),
                         functions_);
  const Clock::time_point sql_start = Clock::now();
  auto compiled = session.Sql(query.sql);
  const Clock::time_point sql_end = Clock::now();
  if (!compiled.ok()) {
    Fail(query.id + " Sql: " + compiled.status().ToString());
    return false;
  }
  iolap::QueryController& controller = (*compiled)->controller();
  const iolap::Status init = controller.Init();
  const Clock::time_point init_end = Clock::now();
  if (!init.ok()) {
    Fail(query.id + " Init: " + init.ToString());
    return false;
  }
  s->sql_s = Seconds(sql_end - sql_start);
  s->init_s = Seconds(init_end - sql_end);
  trace_.Span("sql.compile", sql_start, sql_end, run_id, id_arg);
  trace_.Span("iolap.init", sql_end, init_end, run_id, id_arg);

  Table early_rows;
  int early_batch = -1;
  Clock::time_point last = Clock::now();
  auto observer = [&](const PartialResult& result) {
    const Clock::time_point enter = Clock::now();
    s->gap_s.push_back(Seconds(enter - last));
    s->fraction.push_back(result.fraction_processed);
    if (traced) {
      s->pending_peak = std::max(s->pending_peak, controller.PendingCount());
      s->ring_bytes_peak =
          std::max(s->ring_bytes_peak, controller.CheckpointRingBytes());
      for (const auto& row : result.estimates) s->result_cells += row.size();
      const iolap::BatchMetrics& bm = controller.metrics().batches.back();
      trace_.Span("iolap.batch", last, enter, run_id,
                  id_arg + ", \"batch\": " + std::to_string(result.batch) +
                      ", \"fraction\": " + Num(result.fraction_processed) +
                      ", \"engine_ms\": " + Num(bm.latency_sec * 1e3) +
                      ", \"recoveries\": " +
                      std::to_string(bm.failure_recoveries));
    }
    if (pass == Pass::kWarmup && early_batch < 0 &&
        result.fraction_processed >= kEarlyFraction) {
      early_rows = result.rows;
      early_batch = result.batch;
    }
    const Clock::time_point exit = Clock::now();
    trace_.Span("bench.observer", enter, exit, run_id, id_arg);
    s->observer_s += Seconds(exit - enter);
    last = Clock::now();
    return BatchAction::kContinue;
  };

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point run_start = Clock::now();
  last = run_start;
  const iolap::Status status = (*compiled)->Run(observer);
  const Clock::time_point run_end = Clock::now();
  s->cpu_s = ProcessCpuSeconds() - cpu_start;
  s->run_s = Seconds(run_end - run_start) - s->observer_s;
  trace_.Span("iolap.run", run_start, run_end, run_id, id_arg);
  if (!status.ok()) {
    Fail(query.id + " Run: " + status.ToString());
    return false;
  }
  s->metrics = (*compiled)->metrics();
  *final_rows = (*compiled)->last_result().rows;

  if (pass == Pass::kWarmup) {
    const std::string diff =
        CheckEarly(q, controller, early_rows, early_batch);
    if (!diff.empty()) {
      Fail(query.id + " 10% answer differs from the reference: " + diff);
      return false;
    }
  }
  return true;
}

bool Bench::RunBaseline(size_t q, double* run_s, Table* final_rows) {
  const BenchQuery& query = queries_[q];
  const int run_id = next_run_id_++;
  Calibrate();
  iolap::Session session(&CatalogOf(q), Options(ExecutionMode::kBaseline),
                         functions_);
  auto compiled = session.Sql(query.sql);
  if (!compiled.ok()) {
    Fail(query.id + " baseline Sql: " + compiled.status().ToString());
    return false;
  }
  const iolap::Status init = (*compiled)->controller().Init();
  if (!init.ok()) {
    Fail(query.id + " baseline Init: " + init.ToString());
    return false;
  }
  const Clock::time_point start = Clock::now();
  const iolap::Status status = (*compiled)->Run(nullptr);
  const Clock::time_point end = Clock::now();
  trace_.Span("baseline.run", start, end, run_id,
              "\"query\": \"" + query.id + "\"");
  if (!status.ok()) {
    Fail(query.id + " baseline Run: " + status.ToString());
    return false;
  }
  *run_s = Seconds(end - start);
  *final_rows = (*compiled)->last_result().rows;
  return true;
}

void Bench::RunPass(Pass pass, uint64_t round) {
  trace_.set_recording(pass == Pass::kTraced);
  calibration_s_.clear();
  const bool generated = catalogs_.empty() || round != round_;
  if (generated) {
    round_ = round;
    Calibrate();
    if (!Generate(pass)) {
      ++attempted_;
      return;
    }
  }
  std::vector<QuerySamples>& samples =
      pass == Pass::kTraced ? traced_ : untraced_;
  samples.resize(queries_.size());
  std::vector<Sample> iolap(queries_.size());
  std::vector<Table> finals(queries_.size());
  std::vector<bool> ok(queries_.size(), false);
  std::vector<double> baseline_s(queries_.size(), 0.0);
  std::vector<Table> expected(queries_.size());
  std::vector<bool> baseline_ok(queries_.size(), false);
  for (size_t q = 0; q < queries_.size(); ++q) {
    ++attempted_;
    ok[q] = RunIolap(q, pass, &iolap[q], &finals[q]);
  }
  for (size_t q = 0; q < queries_.size(); ++q) {
    ++attempted_;
    baseline_ok[q] = RunBaseline(q, &baseline_s[q], &expected[q]);
  }
  Calibrate();
  const double host = Median(calibration_s_) / kCalibrationNominalS;
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (!baseline_ok[q] || !ok[q]) continue;
    if (args_.corrupt_expected) expected[q] = Corrupted(expected[q]);
    const std::string diff = CompareTables(finals[q], expected[q]);
    if (!diff.empty()) {
      Fail(queries_[q].id + " final answer differs from the baseline: " +
           diff);
      continue;
    }
    if (pass == Pass::kWarmup) continue;
    iolap[q].baseline_s = baseline_s[q];
    iolap[q].host = host;
    samples[q].push_back(std::move(iolap[q]));
  }
  ++passes_[static_cast<int>(pass)];
  if (pass == Pass::kWarmup) return;
  if (generated) generate_norm_s_.push_back(generate_s_.back() / host);
  if (pass == Pass::kUntraced) {
    peak_rss_mb_.push_back(PeakRssMb());
    host_factors_.push_back(host);
  }
}

// Sum over queries of the per-query mean (with `mean`) or median of `get`
// over rounds, with the per-query quartiles summed the same way.
template <typename Get>
Stat Summed(const std::vector<QuerySamples>& samples, Get get, bool mean) {
  Stat stat;
  stat.n = samples.empty() ? 0 : SIZE_MAX;
  for (const QuerySamples& qs : samples) {
    std::vector<double> v;
    for (const Sample& s : qs) v.push_back(get(s));
    stat.value += mean ? Mean(v) : Median(v);
    stat.q1 += Quantile(v, 0.25);
    stat.q3 += Quantile(v, 0.75);
    stat.n = std::min(stat.n, v.size());
  }
  return stat;
}

Stat Scaled(Stat s, double factor) {
  s.value *= factor;
  s.q1 *= factor;
  s.q3 *= factor;
  return s;
}

Stat Single(double value, size_t n = 1) { return Stat{value, value, value, n, ""}; }

Stat OfValues(const std::vector<double>& v) {
  return Stat{Median(v), Quantile(v, 0.25), Quantile(v, 0.75), v.size(), ""};
}

// The end-to-end timings each round yields per query, in their units.
struct RoundTiming {
  const char* name;
  const char* unit;
  double (*get)(const Sample&);
};

const RoundTiming kRoundTimings[] = {
    {"first_answer_s", "s",
     [](const Sample& s) { return s.gap_s.empty() ? s.run_s : s.gap_s[0]; }},
    {"time_to_10pct_s", "s",
     [](const Sample& s) { return s.TimeToFraction(kEarlyFraction); }},
    {"full_s", "s", [](const Sample& s) { return s.run_s; }},
    {"baseline_s", "s", [](const Sample& s) { return s.baseline_s; }},
    {"batch_p50_ms", "ms",
     [](const Sample& s) { return Quantile(s.gap_s, 0.5) * 1e3; }},
    {"batch_p90_ms", "ms",
     [](const Sample& s) { return Quantile(s.gap_s, 0.9) * 1e3; }},
};

// With `wall`, the timings are the raw wall times rather than divided by
// each pass's host factor.
std::vector<Metric> Bench::EndToEnd(bool wall) const {
  const std::vector<QuerySamples>& u = untraced_;
  std::vector<Metric> m;
  const bool mean = workload_.mean_over_rounds;
  auto host = [wall](const Sample& s) { return wall ? 1.0 : s.host; };
  Stat setup = Summed(
      u, [&host](const Sample& s) { return (s.sql_s + s.init_s) / host(s); },
      mean);
  const Stat generate = OfValues(wall ? generate_s_ : generate_norm_s_);
  setup.value += generate.value;
  setup.q1 += generate.q1;
  setup.q3 += generate.q3;
  m.push_back({"setup_s", "s", "lower", setup});
  for (const RoundTiming& t : kRoundTimings) {
    m.push_back({t.name, t.unit, "lower",
                 Summed(
                     u, [&](const Sample& s) { return t.get(s) / host(s); },
                     mean)});
  }
  // Gaps beyond each round's p90, summed over rounds (fewest over queries).
  size_t beyond = u.empty() ? 0 : SIZE_MAX;
  for (const QuerySamples& qs : u) {
    size_t count = 0;
    for (const Sample& s : qs) {
      const double at = Quantile(s.gap_s, 0.9);
      count += std::count_if(s.gap_s.begin(), s.gap_s.end(),
                             [at](double g) { return g > at; });
    }
    beyond = std::min(beyond, count);
  }
  m.back().stat.note = "gaps_beyond=" + std::to_string(beyond);
  m.push_back({"peak_rss_mb", "MB", "lower", OfValues(peak_rss_mb_)});
  return m;
}

std::vector<Metric> Bench::PerLayer() const {
  const std::vector<QuerySamples>& t = traced_;
  std::vector<Metric> m;
  auto add = [&m](const char* name, const char* unit, const char* better,
                  Stat stat) { m.push_back({name, unit, better, stat}); };
  const bool mean = workload_.mean_over_rounds;
  auto total = [&t, mean](auto get) {
    return Summed(
        t, [get](const Sample& s) { return static_cast<double>(get(s)); },
        mean);
  };
  add("workloads.generate_s", "s", "lower", OfValues(generate_s_));
  add("sql.compile_ms", "ms", "lower",
      Scaled(total([](const Sample& s) { return s.sql_s; }), 1e3));
  add("iolap.init_ms", "ms", "lower",
      Scaled(total([](const Sample& s) { return s.init_s; }), 1e3));
  add("exec.programs_compiled", "count", "higher",
      total([](const Sample& s) { return s.metrics.programs_compiled; }));
  add("exec.programs_rejected", "count", "lower",
      total([](const Sample& s) { return s.metrics.programs_rejected; }));
  add("exec.compile_refusals", "count", "lower",
      total([](const Sample& s) { return s.metrics.compile_refusals; }));
  add("iolap.engine_ms", "ms", "lower",
      Scaled(total([](const Sample& s) { return s.metrics.TotalLatencySec(); }),
             1e3));
  add("iolap.accounting_ms", "ms", "lower",
      Scaled(total([](const Sample& s) {
               double gaps = 0.0;
               for (double g : s.gap_s) gaps += g;
               return gaps - s.metrics.TotalLatencySec();
             }),
             1e3));

  // Delivery gaps of the first and the last quarter of each run's batches.
  double early = 0.0;
  double late = 0.0;
  std::vector<double> recovering;
  for (const QuerySamples& qs : t) {
    std::vector<double> first;
    std::vector<double> last;
    for (const Sample& s : qs) {
      const size_t n = s.gap_s.size();
      const size_t quarter = std::max<size_t>(1, n / 4);
      for (size_t k = 0; k < n; ++k) {
        if (k < quarter) first.push_back(s.gap_s[k]);
        if (k >= n - quarter) last.push_back(s.gap_s[k]);
        if (k < s.metrics.batches.size() &&
            s.metrics.batches[k].failure_recoveries > 0) {
          recovering.push_back(s.gap_s[k]);
        }
      }
    }
    early += Median(first);
    late += Median(last);
  }
  add("iolap.late_over_early", "ratio", "lower",
      Single(early > 0 ? late / early : 0.0, t.empty() ? 0 : t[0].size()));
  const Stat cpu = total([](const Sample& s) { return s.cpu_s; });
  const Stat wall = total([](const Sample& s) { return s.run_s; });
  add("iolap.cpu_over_wall", "ratio", "higher",
      Single(wall.value > 0 ? cpu.value / wall.value : 0.0, wall.n));
  const Stat input = total(
      [](const Sample& s) {
        uint64_t rows = 0;
        for (const auto& b : s.metrics.batches) rows += b.input_rows;
        return rows;
      });
  const Stat recomputed = total(
      [](const Sample& s) { return s.metrics.TotalRecomputedRows(); });
  add("iolap.input_rows", "count", "lower", input);
  add("iolap.recomputed_rows", "count", "lower", recomputed);
  add("iolap.recomputed_over_input", "ratio", "lower",
      Single(input.value > 0 ? recomputed.value / input.value : 0.0, input.n));
  add("iolap.pending_rows_peak", "count", "lower",
      total([](const Sample& s) { return s.pending_peak; }));
  add("iolap.state_mb_peak", "MB", "lower",
      total([](const Sample& s) {
        uint64_t peak = 0;
        for (const auto& b : s.metrics.batches) {
          peak = std::max(peak, b.join_state_bytes + b.other_state_bytes);
        }
        return static_cast<double>(peak) / (1024.0 * 1024.0);
      }));
  add("iolap.checkpoint_ring_mb_peak", "MB", "lower",
      total([](const Sample& s) {
        return static_cast<double>(s.ring_bytes_peak) / (1024.0 * 1024.0);
      }));
  add("iolap.recoveries", "count", "lower",
      total([](const Sample& s) {
        return s.metrics.TotalFailureRecoveries();
      }));
  add("iolap.full_restarts", "count", "lower",
      total([](const Sample& s) { return s.metrics.TotalFullRestarts(); }));
  add("iolap.replayed_batches", "count", "lower",
      total([](const Sample& s) {
        return s.metrics.TotalFrozenReplayBatches();
      }));
  add("iolap.recovery_batch_ms", "ms", "lower",
      Scaled(OfValues(recovering), 1e3));
  add("iolap.injected_faults", "count", "lower",
      total([](const Sample& s) { return s.metrics.TotalInjectedFaults(); }));
  add("bootstrap.result_cells", "count", "lower",
      total([](const Sample& s) { return s.result_cells; }));
  add("bench.observer_ms", "ms", "lower",
      Scaled(total([](const Sample& s) { return s.observer_s; }), 1e3));
  const double untraced_full =
      Summed(untraced_, [](const Sample& s) { return s.run_s; }, mean).value;
  add("trace.overhead_pct", "%", "lower",
      Single(untraced_full > 0 ? 100.0 * (wall.value - untraced_full) /
                                     untraced_full
                               : 0.0,
             wall.n));
  return m;
}

std::string Bench::Metadata(size_t passes) const {
  const iolap::TpchConfig tpch =
      iolap::TpchConfig{}.Scaled(workload_.scale);
  const iolap::ConvivaConfig conviva =
      iolap::ConvivaConfig{}.Scaled(workload_.scale);
  std::string m;
  m += "\"workload\": \"" + std::string(workload_.name) + "\"";
  m += ", \"seed\": " + std::to_string(args_.seed);
  m += ", \"trace\": " + std::string(args_.trace ? "1" : "0");
  m += ", \"seconds\": " + std::to_string(args_.seconds);
  m += ", \"build_type\": \"" + Escaped(PERFBENCH_BUILD_TYPE) + "\"";
#ifdef NDEBUG
  m += ", \"ndebug\": true";
#else
  m += ", \"ndebug\": false";
#endif
  m += ", \"compiler\": \"" + Escaped(__VERSION__) + "\"";
  m += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  m += ", \"git_sha\": \"" + Escaped(args_.git_sha) + "\"";
  m += workload_.conviva
           ? ", \"conviva_sessions\": " + std::to_string(conviva.sessions)
           : ", \"tpch_lineorder_rows\": " +
                 std::to_string(tpch.lineorder_rows);
  m += ", \"batches\": " + std::to_string(kBatches);
  m += ", \"trials\": " + std::to_string(kTrials);
  m += ", \"slack\": " + Num(kSlack);
  m += ", \"threads\": " + std::to_string(threads_);
  m += ", \"warmup_passes\": " + std::to_string(passes_[0]);
  m += ", \"measured_passes\": " + std::to_string(passes);
  return m;
}

// Per query: the rounds measured and each round's recoveries, plus with
// `rounds` each round's host factor and raw end-to-end timings, so that
// spreads can be studied offline. Taken from the untraced passes where
// there are any.
std::string Bench::PerQueryJson(bool rounds) const {
  const std::vector<QuerySamples>& samples =
      untraced_.empty() ? traced_ : untraced_;
  std::string out;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const QuerySamples none;
    const QuerySamples& qs = q < samples.size() ? samples[q] : none;
    std::string recoveries;
    std::string hosts;
    for (const Sample& s : qs) {
      recoveries += (recoveries.empty() ? "" : ", ") +
                    std::to_string(s.metrics.TotalFailureRecoveries());
      hosts += (hosts.empty() ? "" : ", ") + Num(s.host);
    }
    out += std::string(out.empty() ? "" : ", ") + "\"" + queries_[q].id +
           "\": {\"rounds\": " + std::to_string(qs.size()) +
           ", \"recoveries_per_round\": [" + recoveries + "]";
    if (rounds) out += ", \"host_factor\": [" + hosts + "]";
    for (const RoundTiming& t : kRoundTimings) {
      if (!rounds) break;
      std::string values;
      for (const Sample& s : qs) {
        values += (values.empty() ? "" : ", ") + Num(t.get(s));
      }
      out += ", \"" + std::string(t.name) + "\": [" + values + "]";
    }
    out += "}";
  }
  return out;
}

int Bench::Main() {
  for (const BenchQuery& query : queries_) {
    if (query.sql.empty()) {
      std::fprintf(stderr, "perfbench: unknown query in workload %s\n",
                   workload_.name);
      return 2;
    }
  }
  // The warm-up pass fills caches, finishes lazy set-up and checks every
  // query's 10% answer against the reference evaluator; its timings are
  // discarded.
  RunPass(Pass::kWarmup, 0);
  // Traced runs alternate a traced and an untraced pass on the same round's
  // inputs, so trace.overhead_pct compares like with like in one process.
  const Clock::time_point start = Clock::now();
  const size_t min_passes = args_.trace ? 2 : 1;
  for (size_t pass = 0;
       pass < min_passes || Seconds(Clock::now() - start) < args_.seconds;
       ++pass) {
    const bool traced = args_.trace && pass % 2 == 0;
    RunPass(traced ? Pass::kTraced : Pass::kUntraced,
            1 + (args_.trace ? pass / 2 : pass));
  }
  const size_t passes = args_.trace ? passes_[2] : passes_[1];

  std::vector<Metric> metrics = args_.trace ? PerLayer() : EndToEnd(false);
  // The same end-to-end metrics in raw wall time, for the record.
  const std::vector<Metric> wall =
      args_.trace ? std::vector<Metric>() : EndToEnd(true);
  const double failed_share =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  int recoveries = 0;
  for (const auto* samples : {&untraced_, &traced_}) {
    for (const QuerySamples& qs : *samples) {
      for (const Sample& s : qs) {
        recoveries += s.metrics.TotalFailureRecoveries();
      }
    }
  }
  const bool representative =
      std::string(workload_.name) != "tpch-recovery" || recoveries > 0;
  std::string metadata = Metadata(passes);
  metadata += ", \"representative\": " +
              std::string(representative ? "true" : "false");
  const Stat host = OfValues(host_factors_);
  metadata += ", \"host_factor\": " + Num(host.value) +
              ", \"host_factor_q1\": " + Num(host.q1) +
              ", \"host_factor_q3\": " + Num(host.q3);

  std::printf("# perfbench %s seed=%llu trace=%d: %zu measured passes\n",
              workload_.name, static_cast<unsigned long long>(args_.seed),
              args_.trace ? 1 : 0, passes);
  std::printf("# metadata {%s}\n", metadata.c_str());
  std::printf("# per-query {%s}\n", PerQueryJson(false).c_str());
  if (!representative) {
    std::printf(
        "# WARNING: tpch-recovery ran with zero recoveries on this seed; "
        "its numbers are not representative of the workload\n");
  }
  auto print_table = [](const char* prefix, const std::vector<Metric>& list) {
    std::printf("%s %-30s %14s %14s %14s %6s  %s\n", prefix, "metric",
                "value", "q1", "q3", "n", "unit");
    for (const Metric& m : list) {
      std::printf("%s %-30s %14.6g %14.6g %14.6g %6zu  %s %s\n", prefix,
                  m.name.c_str(), m.stat.value, m.stat.q1, m.stat.q3,
                  m.stat.n, m.unit.c_str(), m.stat.note.c_str());
    }
  };
  if (!wall.empty()) {
    std::printf("# raw wall times (host factor %.3f, q1 %.3f, q3 %.3f):\n",
                host.value, host.q1, host.q3);
    print_table("# wall", wall);
  }
  print_table("#", metrics);
  std::printf("  %-30s %14.6g %14s %14s %6d  ratio (runs failed / attempted)\n",
              "failed_share", failed_share, "", "", attempted_);

  // Result file: metadata, every metric with quartiles and counts, and the
  // per-query recovery record.
  std::error_code ec;
  std::filesystem::create_directories(args_.out, ec);
  const std::string stem = args_.out + "/" + workload_.name + "-seed" +
                           std::to_string(args_.seed) + "-trace" +
                           (args_.trace ? "1" : "0");
  auto metrics_json = [](const std::vector<Metric>& list) {
    std::string out;
    for (size_t i = 0; i < list.size(); ++i) {
      const Metric& m = list[i];
      out += std::string(i ? ",\n  " : "\n  ") + "\"" + m.name +
             "\": {\"value\": " + Num(m.stat.value) + ", \"unit\": \"" +
             m.unit + "\", \"better\": \"" + m.better +
             "\", \"q1\": " + Num(m.stat.q1) + ", \"q3\": " +
             Num(m.stat.q3) + ", \"n\": " + std::to_string(m.stat.n) +
             ", \"note\": \"" + m.stat.note + "\"}";
    }
    return out;
  };
  std::string json = "{\"metadata\": {" + metadata + "},\n\"metrics\": {" +
                     metrics_json(metrics) + "},\n\"wall_metrics\": {" +
                     metrics_json(wall);
  json += "},\n\"failed_share\": " + Num(failed_share) +
          ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ",\n\"per_query\": {" +
          PerQueryJson(true) + "}}\n";
  std::ofstream(stem + ".json") << json;
  if (args_.trace) {
    if (!trace_.Write(stem + ".trace.json", metadata)) {
      std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                   stem.c_str());
      return 2;
    }
    std::printf("# trace written to %s.trace.json\n", stem.c_str());
  }
  std::printf("# result written to %s.json\n", stem.c_str());

  std::string line = "{\"correct\": " + std::string(failed_ ? "false" : "true") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += std::string(i ? ", " : "") + "\"" + m.name + "\": {\"value\": " +
            Num(m.stat.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return failed_ ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--git-sha SHA] "
                 "[--corrupt-expected]\n");
    return 2;
  }
  // QueryController::Run merges IOLAP_FAILPOINTS into every run; injected
  // faults would turn the benchmark into a different workload.
  const char* failpoints = std::getenv("IOLAP_FAILPOINTS");
  if (failpoints != nullptr && *failpoints != '\0') {
    std::fprintf(stderr, "perfbench: refusing to run with IOLAP_FAILPOINTS set\n");
    return 2;
  }
  for (const perfbench::Workload& workload : perfbench::Workloads()) {
    if (args.workload == workload.name) {
      perfbench::Bench bench(workload, args);
      return bench.Main();
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
