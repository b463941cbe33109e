// Unit tests for QueryMetrics aggregation helpers and Session::Explain.

#include <gtest/gtest.h>

#include "common/random.h"
#include "iolap/metrics.h"
#include "iolap/session.h"

namespace iolap {
namespace {

QueryMetrics MakeMetrics() {
  QueryMetrics metrics;
  for (int b = 0; b < 4; ++b) {
    BatchMetrics bm;
    bm.batch = b;
    bm.latency_sec = 0.1 * (b + 1);
    bm.cpu_sec = 0.2 * (b + 1);
    bm.fraction_processed = 0.25 * (b + 1);
    bm.input_rows = 100;
    bm.recomputed_rows = 10 * b;
    bm.join_state_bytes = 1000 + 100 * b;
    bm.other_state_bytes = 500 - 50 * b;
    bm.shipped_bytes = 2000000 + 500000 * b;
    bm.failure_recoveries = b == 2 ? 3 : 0;
    metrics.batches.push_back(bm);
  }
  return metrics;
}

TEST(MetricsTest, Totals) {
  const QueryMetrics metrics = MakeMetrics();
  EXPECT_NEAR(metrics.TotalLatencySec(), 1.0, 1e-9);
  EXPECT_EQ(metrics.TotalRecomputedRows(), 60u);
  EXPECT_EQ(metrics.TotalShippedBytes(), 11000000u);
  EXPECT_EQ(metrics.MaxShippedBytesPerBatch(), 3500000u);
  EXPECT_NEAR(metrics.AvgShippedBytesPerBatch(), 2750000.0, 1e-9);
  EXPECT_EQ(metrics.TotalFailureRecoveries(), 3);
  EXPECT_EQ(metrics.PeakJoinStateBytes(), 1300u);
  EXPECT_EQ(metrics.PeakOtherStateBytes(), 500u);
  EXPECT_NEAR(metrics.AvgOtherStateBytes(), 425.0, 1e-9);
  // cpu/latency ≈ 2: the batches "used" two workers' worth of CPU.
  EXPECT_NEAR(metrics.TotalCpuSec(), 2.0, 1e-9);
}

TEST(MetricsTest, LatencyToFraction) {
  const QueryMetrics metrics = MakeMetrics();
  // Cumulative latencies: 0.1, 0.3, 0.6, 1.0 at fractions .25/.5/.75/1.
  EXPECT_NEAR(metrics.LatencyToFraction(0.25), 0.1, 1e-9);
  EXPECT_NEAR(metrics.LatencyToFraction(0.30), 0.3, 1e-9);
  EXPECT_NEAR(metrics.LatencyToFraction(1.0), 1.0, 1e-9);
}

TEST(MetricsTest, LatencyToFractionKeysOnFractionNotBatchIndex) {
  // Uneven batches: the target fraction is reached by whichever batch's
  // fraction_processed crosses it, not by batch position. Batch 0 already
  // covers 60% of the data here.
  QueryMetrics metrics;
  const double fractions[] = {0.6, 0.7, 1.0};
  for (int b = 0; b < 3; ++b) {
    BatchMetrics bm;
    bm.batch = b;
    bm.latency_sec = 0.1;
    bm.fraction_processed = fractions[b];
    metrics.batches.push_back(bm);
  }
  EXPECT_NEAR(metrics.LatencyToFraction(0.05), 0.1, 1e-9);
  EXPECT_NEAR(metrics.LatencyToFraction(0.60), 0.1, 1e-9);
  EXPECT_NEAR(metrics.LatencyToFraction(0.65), 0.2, 1e-9);
  EXPECT_NEAR(metrics.LatencyToFraction(0.99), 0.3, 1e-9);
}

TEST(MetricsTest, SummaryReportsMeasuredAndModeledBytes) {
  const QueryMetrics metrics = MakeMetrics();
  const std::string summary = metrics.Summary();
  // One shipped-bytes series: the cost model's total, printed once.
  const size_t shipped = summary.find("shipped=11.0MB");
  EXPECT_NE(shipped, std::string::npos) << summary;
  EXPECT_EQ(summary.find("shipped=", shipped + 1), std::string::npos);
  EXPECT_EQ(summary.find("modeled="), std::string::npos);
}

TEST(MetricsTest, EmptyMetrics) {
  QueryMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.TotalLatencySec(), 0.0);
  EXPECT_EQ(metrics.TotalRecomputedRows(), 0u);
  EXPECT_DOUBLE_EQ(metrics.AvgShippedBytesPerBatch(), 0.0);
  EXPECT_FALSE(metrics.Summary().empty());
}

TEST(ExplainTest, RendersPlanAndAnnotations) {
  Rng rng(3);
  Catalog catalog;
  Table t(Schema({{"v", ValueType::kDouble}, {"g", ValueType::kInt64}}));
  for (int i = 0; i < 50; ++i) {
    t.AddRow({Value::Double(rng.NextDouble()),
              Value::Int64(static_cast<int64_t>(rng.NextBounded(3)))});
  }
  ASSERT_TRUE(catalog.RegisterTable("t", std::move(t), true).ok());
  Session session(&catalog);
  auto explained = session.Explain(
      "SELECT avg(v) FROM t WHERE v > (SELECT avg(v) FROM t)");
  ASSERT_TRUE(explained.ok()) << explained.status();
  // The subquery block and the outer block both appear...
  EXPECT_NE(explained->find("Block 0"), std::string::npos);
  EXPECT_NE(explained->find("Block 1"), std::string::npos);
  // ... with the SBI uncertainty structure: the outer filter is uncertain
  // and would force HDA re-evaluation.
  EXPECT_NE(explained->find("uncertain-filter"), std::string::npos);
  EXPECT_NE(explained->find("hda-recomputes"), std::string::npos);
  EXPECT_NE(explained->find("dynamic"), std::string::npos);

  EXPECT_FALSE(session.Explain("SELECT nope FROM nothing").ok());
}

}  // namespace
}  // namespace iolap
