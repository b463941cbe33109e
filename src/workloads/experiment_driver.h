#ifndef IOLAP_WORKLOADS_EXPERIMENT_DRIVER_H_
#define IOLAP_WORKLOADS_EXPERIMENT_DRIVER_H_

#include <memory>
#include <string>

#include "iolap/session.h"
#include "workloads/conviva.h"
#include "workloads/conviva_queries.h"
#include "workloads/tpch.h"
#include "workloads/tpch_queries.h"

namespace iolap {

/// Outcome of one benchmark-query execution.
struct RunOutcome {
  QueryMetrics metrics;
  PartialResult final_result;
};

/// Global scale factor for benchmark datasets; override with the
/// IOLAP_BENCH_SCALE environment variable (e.g. 0.25 for a quick pass,
/// 4 for a longer, smoother run).
double BenchScale();

/// Default mini-batch count for benchmark runs (IOLAP_BENCH_BATCHES).
size_t BenchBatches();

/// Default bootstrap trial count for benchmark runs (IOLAP_BENCH_TRIALS).
int BenchTrials();

/// Intra-batch worker threads for benchmark runs (IOLAP_BENCH_THREADS;
/// default 0 = inline). Results are bit-identical across values — only
/// per-batch wall time changes.
size_t BenchThreads();

/// Process-wide function registry with the Conviva UDFs registered.
std::shared_ptr<FunctionRegistry> BenchFunctions();

/// Process-wide cached TPC-H catalog streaming `streamed_table`
/// (regenerated only when the streamed table changes).
Result<std::shared_ptr<Catalog>> TpchCatalogStreaming(
    const std::string& streamed_table);

/// Process-wide cached Conviva catalog.
Result<std::shared_ptr<Catalog>> ConvivaBenchCatalog();

/// Compiles and runs `query.sql` on `catalog` under `options`; forwards
/// each partial result to `observer` when non-null.
Result<RunOutcome> RunBenchQuery(std::shared_ptr<Catalog> catalog,
                                 const BenchQuery& query,
                                 const EngineOptions& options,
                                 const ResultObserver& observer = nullptr);

/// Resolves the catalog for a query of either workload (TPC-H queries name
/// their streamed relation; Conviva queries stream `sessions`).
Result<std::shared_ptr<Catalog>> CatalogFor(const BenchQuery& query,
                                            bool conviva);

/// Engine options preset used by the figure benches: iOLAP defaults
/// (bootstrap trials, slack 2, batch count) at the bench scale. Every
/// block evaluates its rows through compiled expression programs; there is
/// no interpreter switch.
EngineOptions BenchOptions(ExecutionMode mode);

}  // namespace iolap

#endif  // IOLAP_WORKLOADS_EXPERIMENT_DRIVER_H_
