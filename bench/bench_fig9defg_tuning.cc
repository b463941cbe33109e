// Figure 9(d): slack parameter vs probability of failure-recovery
// (Conviva nested queries, repeated seeds).
// Figure 9(e): slack parameter vs average tuples recomputed per batch.
// Figure 9(f)/(g): batch size vs average per-batch latency and vs total
// query latency.
//
// Paper shapes: failure probability drops fast with slack and hits zero by
// ε≈2; the non-deterministic set grows only mildly with slack; per-batch
// latency grows linearly with batch size while total latency falls.

#include <atomic>
#include <cstdio>

#include "common/thread_pool.h"

#include "bench_util.h"

using namespace iolap;  // NOLINT — bench brevity

namespace {

const char* kNested[] = {"c1", "c2", "c4", "c6", "c7", "c8", "c9", "c10"};
constexpr double kSlacks[] = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5};
constexpr int kSeeds = 5;

}  // namespace

int main() {
  auto catalog = ConvivaBenchCatalog();
  if (!catalog.ok()) {
    std::fprintf(stderr, "%s\n", catalog.status().ToString().c_str());
    return 1;
  }

  // --- Fig 9(d)/(e): slack sweep --------------------------------------
  bench::Header("Figure 9(d)/(e)",
                "slack vs failure-recovery probability and vs avg tuples "
                "recomputed per batch (Conviva nested queries)",
                "query\tslack\tfailure_probability\tavg_recomputed_per_batch");
  // Each (query, slack, seed) run is an independent engine instance over
  // the shared read-only catalog: fan the sweep out over a thread pool.
  ThreadPool pool(std::thread::hardware_concurrency());
  for (const char* id : kNested) {
    const BenchQuery query = FindConvivaQuery(id);
    for (double slack : kSlacks) {
      std::atomic<int> runs_with_failure{0};
      std::atomic<long long> recomputed{0};
      std::atomic<size_t> batches{0};
      std::atomic<bool> failed{false};
      pool.ParallelRanges(kSeeds, [&](size_t begin, size_t end, size_t) {
        for (size_t seed = begin; seed < end; ++seed) {
          EngineOptions options = BenchOptions(ExecutionMode::kIolap);
          options.slack = slack;
          options.seed = 1000 + seed * 77;
          auto outcome = RunBenchQuery(*catalog, query, options);
          if (!outcome.ok()) {
            failed = true;
            continue;
          }
          if (outcome->metrics.TotalFailureRecoveries() > 0) {
            runs_with_failure.fetch_add(1);
          }
          recomputed.fetch_add(
              static_cast<long long>(outcome->metrics.TotalRecomputedRows()));
          batches.fetch_add(outcome->metrics.batches.size());
        }
      });
      if (failed) {
        std::fprintf(stderr, "%s failed\n", id);
        return 1;
      }
      std::printf("%s\t%.1f\t%.2f\t%.1f\n", id, slack,
                  static_cast<double>(runs_with_failure.load()) / kSeeds,
                  batches.load() > 0
                      ? static_cast<double>(recomputed.load()) / batches.load()
                      : 0.0);
    }
  }

  // --- Fig 9(f)/(g): batch-size sweep ----------------------------------
  std::printf("\n");
  bench::Header("Figure 9(f)/(g)",
                "batch size vs avg per-batch latency and total latency "
                "(Conviva workload)",
                "query\tbatches\trows_per_batch\tavg_batch_ms\ttotal_s");
  const Table& sessions = *(*(*catalog)->Find("sessions"))->table;
  for (const BenchQuery& query : ConvivaQueries()) {
    for (size_t batches : {40, 30, 25, 20, 15}) {
      EngineOptions options = BenchOptions(ExecutionMode::kIolap);
      options.num_batches = batches;
      auto outcome = RunBenchQuery(*catalog, query, options);
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s: %s\n", query.id.c_str(),
                     outcome.status().ToString().c_str());
        return 1;
      }
      const double total = outcome->metrics.TotalLatencySec();
      std::printf("%s\t%zu\t%zu\t%.3f\t%.4f\n", query.id.c_str(), batches,
                  sessions.num_rows() / batches,
                  1e3 * total / outcome->metrics.batches.size(), total);
    }
  }
  return 0;
}
