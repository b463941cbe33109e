// Figure 10(c): Conviva operator state sizes kept by iOLAP.
// Figure 10(d): Conviva data shipped — baseline vs iOLAP total and
// per-batch.
//
// Paper shapes: all operators (including JOIN — the Conviva fact table is
// denormalized, so joins are against small derived relations) keep at most
// a few hundred KB-equivalent of state; iOLAP-total carries a bounded
// overhead over the baseline and per-batch traffic is 1–2 orders of
// magnitude smaller.

#include <cstdio>

#include "bench_util.h"

using namespace iolap;  // NOLINT — bench brevity

int main() {
  struct Row {
    std::string id;
    uint64_t join_state = 0;
    uint64_t other_state_avg = 0;
    uint64_t other_state_peak = 0;
    uint64_t baseline_shipped = 0;
    uint64_t iolap_total = 0;
    uint64_t per_batch_avg = 0;
    uint64_t per_batch_max = 0;
  };
  std::vector<Row> rows;
  // Shares BENCH_fig7.json with the latency benches; Flush() merges by
  // name, so only the fig10_* series is replaced here.
  bench::JsonWriter json("BENCH_fig7.json");
  auto catalog = ConvivaBenchCatalog();
  if (!catalog.ok()) {
    std::fprintf(stderr, "%s\n", catalog.status().ToString().c_str());
    return 1;
  }
  for (const BenchQuery& query : ConvivaQueries()) {
    auto baseline =
        RunBenchQuery(*catalog, query, BenchOptions(ExecutionMode::kBaseline));
    auto iolap_run =
        RunBenchQuery(*catalog, query, BenchOptions(ExecutionMode::kIolap));
    if (!baseline.ok() || !iolap_run.ok()) {
      std::fprintf(stderr, "%s failed\n", query.id.c_str());
      return 1;
    }
    Row row;
    row.id = query.id;
    row.join_state = iolap_run->metrics.PeakJoinStateBytes();
    row.other_state_avg =
        static_cast<uint64_t>(iolap_run->metrics.AvgOtherStateBytes());
    row.other_state_peak = iolap_run->metrics.PeakOtherStateBytes();
    row.baseline_shipped = baseline->metrics.TotalShippedBytes();
    row.iolap_total = iolap_run->metrics.TotalShippedBytes();
    row.per_batch_avg =
        static_cast<uint64_t>(iolap_run->metrics.AvgShippedBytesPerBatch());
    row.per_batch_max = iolap_run->metrics.MaxShippedBytesPerBatch();
    rows.push_back(row);

    const double baseline_s = baseline->metrics.TotalLatencySec();
    const double iolap_s = iolap_run->metrics.TotalLatencySec();
    json.AddWithRecovery(
        "fig10_conviva_" + query.id + "_baseline", baseline_s,
        baseline->metrics.TotalCpuSec(),
        baseline_s > 0 ? bench::TotalInputRows(baseline->metrics) / baseline_s
                       : 0.0,
        BenchThreads(), baseline->metrics);
    json.AddWithRecovery(
        "fig10_conviva_" + query.id + "_iolap", iolap_s,
        iolap_run->metrics.TotalCpuSec(),
        iolap_s > 0 ? bench::TotalInputRows(iolap_run->metrics) / iolap_s
                    : 0.0,
        BenchThreads(), iolap_run->metrics);
  }

  bench::Header("Figure 10(c)", "Conviva operator state sizes kept by iOLAP",
                "query\tjoin_state_KB\tother_state_avg_KB\t"
                "other_state_peak_KB");
  for (const Row& row : rows) {
    std::printf("%s\t%.1f\t%.1f\t%.1f\n", row.id.c_str(),
                row.join_state / 1e3, row.other_state_avg / 1e3,
                row.other_state_peak / 1e3);
  }
  std::printf("\n");
  bench::Header("Figure 10(d)", "Conviva data shipped at query time",
                "query\tbaseline_KB\tiolap_total_KB\tper_batch_avg_KB\t"
                "per_batch_max_KB");
  for (const Row& row : rows) {
    std::printf("%s\t%.1f\t%.1f\t%.1f\t%.1f\n", row.id.c_str(),
                row.baseline_shipped / 1e3, row.iolap_total / 1e3,
                row.per_batch_avg / 1e3, row.per_batch_max / 1e3);
  }
  return json.Flush() ? 0 : 1;
}
