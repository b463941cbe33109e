// Figure 10(e)/(f): the slack-parameter sweep of Fig. 9(d)/(e) on the
// TPC-H nested queries: slack vs probability of failure-recovery and vs
// average tuples recomputed per batch.
//
// Paper shapes: identical to the Conviva sweep — failures vanish by ε≈2,
// the non-deterministic set grows slowly with slack.

#include <atomic>
#include <cstdio>

#include "common/thread_pool.h"

#include "bench_util.h"

using namespace iolap;  // NOLINT — bench brevity

int main() {
  bench::Header("Figure 10(e)/(f)",
                "slack vs failure-recovery probability and avg tuples "
                "recomputed per batch (TPC-H nested queries)",
                "query\tslack\tfailure_probability\tavg_recomputed_per_batch");
  constexpr double kSlacks[] = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5};
  constexpr int kSeeds = 5;
  for (const BenchQuery& query : TpchQueries()) {
    if (!query.nested) continue;
    auto catalog = CatalogFor(query, /*conviva=*/false);
    if (!catalog.ok()) {
      std::fprintf(stderr, "%s\n", catalog.status().ToString().c_str());
      return 1;
    }
    ThreadPool pool(std::thread::hardware_concurrency());
    for (double slack : kSlacks) {
      std::atomic<int> runs_with_failure{0};
      std::atomic<long long> recomputed{0};
      std::atomic<size_t> batches{0};
      std::atomic<bool> failed{false};
      pool.ParallelRanges(kSeeds, [&](size_t begin, size_t end, size_t) {
        for (size_t seed = begin; seed < end; ++seed) {
          EngineOptions options = BenchOptions(ExecutionMode::kIolap);
          options.slack = slack;
          options.seed = 4242 + seed * 31;
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
        std::fprintf(stderr, "%s failed\n", query.id.c_str());
        return 1;
      }
      std::printf("%s\t%.1f\t%.2f\t%.1f\n", query.id.c_str(), slack,
                  static_cast<double>(runs_with_failure.load()) / kSeeds,
                  batches.load() > 0
                      ? static_cast<double>(recomputed.load()) / batches.load()
                      : 0.0);
    }
  }
  return 0;
}
