#ifndef IOLAP_BENCH_BENCH_UTIL_H_
#define IOLAP_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benches. Every bench binary
// prints the series behind one table/figure of the paper in a stable,
// grep-friendly format:
//
//   # <figure id>: <description>
//   # columns: <tab-separated column names>
//   <rows...>
//
// Absolute numbers differ from the paper (single machine vs a 20-node EC2
// cluster); EXPERIMENTS.md records which *shapes* must hold.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads/experiment_driver.h"

// Machine-readable companion output: benches also emit a BENCH_<id>.json
// in the working directory so dashboards and regression scripts don't have
// to parse the human-oriented tab format. Several binaries share
// BENCH_fig7.json (fig7 latency rows, fig9/fig10 shipped-bytes rows);
// Flush() merges by row name so each binary replaces only its own series no
// matter which ran last. Uniform row schema:
//   {"name": ..., "wall_sec": ..., "cpu_sec": ..., "rows_per_sec": ...,
//    "threads": ...}
// Rows added with run metrics carry additional keys:
//   "shipped_bytes" (the shuffle/broadcast cost model's total),
//   "recoveries", "max_rollback_depth", "full_restarts",
//   "corrupt_checkpoints", "injected_faults", "frozen_replay_batches",
//   "recoveries_exhausted", "degraded"
// A "context" row, when a bench sets one, records the run's key=value
// context (build type, nproc, git sha) as string members.

namespace iolap {
namespace bench {

inline void Header(const std::string& figure, const std::string& description,
                   const std::string& columns) {
  std::printf("# %s: %s\n", figure.c_str(), description.c_str());
  std::printf("# columns: %s\n", columns.c_str());
}

/// Accumulates rows of the uniform schema and writes them as a JSON array
/// to `path` in the working directory. Names are expected to be plain
/// identifiers (bench + query ids); the writer escapes quotes/backslashes
/// anyway so odd names can't corrupt the file.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}

  void Add(const std::string& name, double wall_sec, double cpu_sec,
           double rows_per_sec, size_t threads) {
    rows_.push_back(Entry{name, wall_sec, cpu_sec, rows_per_sec, threads});
  }

  /// Same row plus the shipped bytes and failure-recovery counters of the
  /// run — used by benches whose runs can recover (an unnoticed recovery
  /// storm would otherwise masquerade as a latency regression).
  void AddWithRecovery(const std::string& name, double wall_sec,
                       double cpu_sec, double rows_per_sec, size_t threads,
                       const QueryMetrics& metrics) {
    Entry e{name, wall_sec, cpu_sec, rows_per_sec, threads};
    e.has_recovery = true;
    e.shipped_bytes = metrics.TotalShippedBytes();
    e.recoveries = metrics.TotalFailureRecoveries();
    e.max_rollback_depth = metrics.MaxRollbackDepth();
    e.full_restarts = metrics.TotalFullRestarts();
    e.corrupt_checkpoints = metrics.TotalCorruptCheckpoints();
    e.injected_faults = metrics.TotalInjectedFaults();
    e.frozen_replay_batches = metrics.TotalFrozenReplayBatches();
    e.recoveries_exhausted = metrics.TotalRecoveriesExhausted();
    e.degraded = metrics.DegradedMode();
    rows_.push_back(std::move(e));
  }

  /// Sets the "context" row from comma-separated key=value pairs, the
  /// syntax of google-benchmark's --benchmark_context.
  void SetContext(const std::string& pairs) {
    std::string members;
    size_t begin = 0;
    while (begin < pairs.size()) {
      size_t end = pairs.find(',', begin);
      if (end == std::string::npos) end = pairs.size();
      const std::string pair = pairs.substr(begin, end - begin);
      const size_t eq = pair.find('=');
      if (eq != std::string::npos) {
        members += ", \"" + Escaped(pair.substr(0, eq)) + "\": \"" +
                   Escaped(pair.substr(eq + 1)) + "\"";
      }
      begin = end + 1;
    }
    context_ = "  {\"name\": \"context\"" + members + "}";
  }

  /// Writes the file; returns false (and prints to stderr) on I/O failure.
  /// Rows already on disk whose name is not being re-emitted survive the
  /// rewrite verbatim, so bench binaries sharing one file never clobber
  /// each other's series.
  bool Flush() const {
    const std::vector<std::string> kept = KeptExistingLines();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    const size_t total = kept.size() + rows_.size() + !context_.empty();
    size_t written = 0;
    if (!context_.empty()) {
      ++written;
      std::fprintf(f, "%s%s\n", context_.c_str(), written < total ? "," : "");
    }
    for (const std::string& line : kept) {
      ++written;
      std::fprintf(f, "%s%s\n", line.c_str(), written < total ? "," : "");
    }
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Entry& e = rows_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"wall_sec\": %.9g, "
                   "\"cpu_sec\": %.9g, \"rows_per_sec\": %.1f, "
                   "\"threads\": %zu",
                   Escaped(e.name).c_str(), e.wall_sec, e.cpu_sec,
                   e.rows_per_sec, e.threads);
      if (e.has_recovery) {
        std::fprintf(f,
                     ", \"shipped_bytes\": %llu, \"recoveries\": %d, "
                     "\"max_rollback_depth\": %d, "
                     "\"full_restarts\": %d, \"corrupt_checkpoints\": %d, "
                     "\"injected_faults\": %d, \"frozen_replay_batches\": %d, "
                     "\"recoveries_exhausted\": %d, \"degraded\": %s",
                     static_cast<unsigned long long>(e.shipped_bytes),
                     e.recoveries, e.max_rollback_depth, e.full_restarts,
                     e.corrupt_checkpoints, e.injected_faults,
                     e.frozen_replay_batches, e.recoveries_exhausted,
                     e.degraded ? "true" : "false");
      }
      ++written;
      std::fprintf(f, "}%s\n", written < total ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double wall_sec;
    double cpu_sec;
    double rows_per_sec;
    size_t threads;
    // Optional run metrics (AddWithRecovery).
    bool has_recovery = false;
    uint64_t shipped_bytes = 0;
    int recoveries = 0;
    int max_rollback_depth = 0;
    int full_restarts = 0;
    int corrupt_checkpoints = 0;
    int injected_faults = 0;
    int frozen_replay_batches = 0;
    int recoveries_exhausted = 0;
    bool degraded = false;
  };

  // Row lines already in the file whose "name" is not among the rows being
  // written. The file is line-oriented (one row object per line, two-space
  // indent), so a string scan suffices — no JSON parser needed. Truncated
  // or unrecognizable lines are dropped rather than preserved blind.
  std::vector<std::string> KeptExistingLines() const {
    std::vector<std::string> kept;
    std::FILE* in = std::fopen(path_.c_str(), "r");
    if (in == nullptr) return kept;
    char buf[4096];
    const std::string prefix = "  {\"name\": \"";
    while (std::fgets(buf, sizeof(buf), in) != nullptr) {
      std::string line(buf);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (line.compare(0, prefix.size(), prefix) != 0) continue;
      std::string name;
      bool closed = false;
      for (size_t i = prefix.size(); i < line.size(); ++i) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          name.push_back(line[i + 1]);
          ++i;
        } else if (line[i] == '"') {
          closed = true;
          break;
        } else {
          name.push_back(line[i]);
        }
      }
      if (!closed) continue;
      // A context row describes one run: the last writer's replaces it.
      bool replaced = name == "context";
      for (const Entry& e : rows_) replaced = replaced || e.name == name;
      if (replaced) continue;
      if (!line.empty() && line.back() == ',') line.pop_back();
      kept.push_back(std::move(line));
    }
    std::fclose(in);
    return kept;
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string path_;
  std::vector<Entry> rows_;
  std::string context_;  // the "context" row's line, empty when unset
};

/// Input tuples folded in across all batches of a run (the denominator of
/// the JSON rows_per_sec column).
inline uint64_t TotalInputRows(const QueryMetrics& metrics) {
  uint64_t total = 0;
  for (const BatchMetrics& b : metrics.batches) total += b.input_rows;
  return total;
}

/// Worst relative standard deviation across all estimated cells of a
/// partial result (the accuracy measure of Fig. 7).
inline double WorstRelStddev(const PartialResult& partial) {
  double worst = 0.0;
  for (const auto& row : partial.estimates) {
    for (const ErrorEstimate& est : row) {
      worst = std::max(worst, est.rel_stddev);
    }
  }
  return worst;
}

/// Cumulative engine latency after each batch.
inline std::vector<double> CumulativeLatency(const QueryMetrics& metrics) {
  std::vector<double> cumulative;
  double total = 0.0;
  for (const BatchMetrics& b : metrics.batches) {
    total += b.latency_sec;
    cumulative.push_back(total);
  }
  return cumulative;
}

/// Engine latency until `fraction` of the data is processed.
inline double LatencyToFraction(const QueryMetrics& metrics, double fraction) {
  double total = 0.0;
  for (const BatchMetrics& b : metrics.batches) {
    total += b.latency_sec;
    if (b.fraction_processed >= fraction) break;
  }
  return total;
}

/// Smaller catalogs for the mode-comparison benches (HDA re-evaluates all
/// accumulated data each batch, which is exactly the quadratic blow-up the
/// figures demonstrate — run it on a reduced instance to keep the sweep
/// fast).
inline Result<std::shared_ptr<Catalog>> SmallCatalogFor(const BenchQuery& query,
                                                        bool conviva,
                                                        double factor) {
  if (conviva) {
    ConvivaConfig config;
    config = config.Scaled(BenchScale() * factor);
    return MakeConvivaCatalog(config);
  }
  TpchConfig config;
  config = config.Scaled(BenchScale() * factor);
  return MakeTpchCatalog(config, query.streamed_table);
}

}  // namespace bench
}  // namespace iolap

#endif  // IOLAP_BENCH_BENCH_UTIL_H_
