#include "workloads/experiment_driver.h"

#include <cstdlib>
#include <map>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace iolap {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  return end != value ? parsed : fallback;
}

// Process-wide catalog caches shared by every bench/test thread that asks
// for a workload dataset. Annotated so a Clang -Wthread-safety build proves
// no access bypasses the lock (the caches are the only cross-thread mutable
// state in the bench driver).
Mutex tpch_cache_mu;
std::map<std::string, std::shared_ptr<Catalog>> tpch_cache
    IOLAP_GUARDED_BY(tpch_cache_mu);

Mutex conviva_cache_mu;
std::shared_ptr<Catalog> conviva_cache IOLAP_GUARDED_BY(conviva_cache_mu);

}  // namespace

double BenchScale() {
  static const double scale = EnvDouble("IOLAP_BENCH_SCALE", 1.0);
  return scale;
}

size_t BenchBatches() {
  static const size_t batches = static_cast<size_t>(
      EnvDouble("IOLAP_BENCH_BATCHES", 25.0));
  return batches == 0 ? 1 : batches;
}

int BenchTrials() {
  static const int trials =
      static_cast<int>(EnvDouble("IOLAP_BENCH_TRIALS", 60.0));
  return trials < 0 ? 0 : trials;
}

size_t BenchThreads() {
  // Clamp before the size_t cast: a negative value would wrap to a worker
  // count in the quintillions and abort in ThreadPool's vector::reserve.
  static const size_t threads = [] {
    const double parsed = EnvDouble("IOLAP_BENCH_THREADS", 0.0);
    return parsed < 0.0 ? size_t{0} : static_cast<size_t>(parsed);
  }();
  return threads;
}

std::shared_ptr<FunctionRegistry> BenchFunctions() {
  static const std::shared_ptr<FunctionRegistry> functions = [] {
    auto registry = FunctionRegistry::Default();
    RegisterConvivaUdfs(registry.get());
    return registry;
  }();
  return functions;
}

Result<std::shared_ptr<Catalog>> TpchCatalogStreaming(
    const std::string& streamed_table) {
  MutexLock lock(tpch_cache_mu);
  auto it = tpch_cache.find(streamed_table);
  if (it != tpch_cache.end()) return it->second;
  TpchConfig config;
  config = config.Scaled(BenchScale());
  IOLAP_ASSIGN_OR_RETURN(std::shared_ptr<Catalog> catalog,
                         MakeTpchCatalog(config, streamed_table));
  tpch_cache[streamed_table] = catalog;
  return catalog;
}

Result<std::shared_ptr<Catalog>> ConvivaBenchCatalog() {
  MutexLock lock(conviva_cache_mu);
  if (conviva_cache != nullptr) return conviva_cache;
  ConvivaConfig config;
  config = config.Scaled(BenchScale());
  IOLAP_ASSIGN_OR_RETURN(conviva_cache, MakeConvivaCatalog(config));
  return conviva_cache;
}

Result<std::shared_ptr<Catalog>> CatalogFor(const BenchQuery& query,
                                            bool conviva) {
  if (conviva) return ConvivaBenchCatalog();
  return TpchCatalogStreaming(query.streamed_table);
}

EngineOptions BenchOptions(ExecutionMode mode) {
  EngineOptions options;
  options.mode = mode;
  options.num_trials = BenchTrials();
  options.num_batches = BenchBatches();
  options.num_threads = BenchThreads();
  options.slack = 2.0;
  options.seed = 1234;
  return options;
}

Result<RunOutcome> RunBenchQuery(std::shared_ptr<Catalog> catalog,
                                 const BenchQuery& query,
                                 const EngineOptions& options,
                                 const ResultObserver& observer) {
  Session session(catalog.get(), options, BenchFunctions());
  IOLAP_ASSIGN_OR_RETURN(std::unique_ptr<IncrementalQuery> compiled,
                         session.Sql(query.sql));
  IOLAP_RETURN_IF_ERROR(compiled->Run(observer));
  RunOutcome outcome;
  outcome.metrics = compiled->metrics();
  outcome.final_result = compiled->last_result();
  return outcome;
}

}  // namespace iolap
