#include "iolap/metrics.h"

#include <algorithm>
#include <cstdio>

namespace iolap {

double QueryMetrics::TotalLatencySec() const {
  double total = 0;
  for (const auto& b : batches) total += b.latency_sec;
  return total;
}

double QueryMetrics::TotalCpuSec() const {
  double total = 0;
  for (const auto& b : batches) total += b.cpu_sec;
  return total;
}

uint64_t QueryMetrics::TotalRecomputedRows() const {
  uint64_t total = 0;
  for (const auto& b : batches) total += b.recomputed_rows;
  return total;
}

uint64_t QueryMetrics::TotalShippedBytes() const {
  uint64_t total = 0;
  for (const auto& b : batches) total += b.shipped_bytes;
  return total;
}

uint64_t QueryMetrics::MaxShippedBytesPerBatch() const {
  uint64_t best = 0;
  for (const auto& b : batches) best = std::max(best, b.shipped_bytes);
  return best;
}

double QueryMetrics::AvgShippedBytesPerBatch() const {
  if (batches.empty()) return 0;
  return static_cast<double>(TotalShippedBytes()) / batches.size();
}

int QueryMetrics::TotalFailureRecoveries() const {
  int total = 0;
  for (const auto& b : batches) total += b.failure_recoveries;
  return total;
}

int QueryMetrics::TotalFullRestarts() const {
  int total = 0;
  for (const auto& b : batches) total += b.full_restarts;
  return total;
}

int QueryMetrics::TotalCorruptCheckpoints() const {
  int total = 0;
  for (const auto& b : batches) total += b.corrupt_checkpoints;
  return total;
}

int QueryMetrics::TotalInjectedFaults() const {
  int total = 0;
  for (const auto& b : batches) total += b.injected_faults;
  return total;
}

int QueryMetrics::TotalFrozenReplayBatches() const {
  int total = 0;
  for (const auto& b : batches) total += b.frozen_replay_batches;
  return total;
}

int QueryMetrics::TotalRecoveriesExhausted() const {
  int total = 0;
  for (const auto& b : batches) total += b.recoveries_exhausted;
  return total;
}

int QueryMetrics::MaxRollbackDepth() const {
  int best = 0;
  for (const auto& b : batches) best = std::max(best, b.rollback_depth_max);
  return best;
}

bool QueryMetrics::DegradedMode() const {
  return !batches.empty() && batches.back().degrade_level > 0;
}

uint64_t QueryMetrics::PeakJoinStateBytes() const {
  uint64_t best = 0;
  for (const auto& b : batches) best = std::max(best, b.join_state_bytes);
  return best;
}

uint64_t QueryMetrics::PeakOtherStateBytes() const {
  uint64_t best = 0;
  for (const auto& b : batches) best = std::max(best, b.other_state_bytes);
  return best;
}

double QueryMetrics::AvgOtherStateBytes() const {
  if (batches.empty()) return 0;
  double total = 0;
  for (const auto& b : batches) total += static_cast<double>(b.other_state_bytes);
  return total / batches.size();
}

double QueryMetrics::LatencyToFraction(double fraction) const {
  double total = 0;
  for (const auto& b : batches) {
    total += b.latency_sec;
    if (b.fraction_processed >= fraction) break;
  }
  return total;
}

std::string QueryMetrics::Summary() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "batches=%zu total=%.3fs cpu=%.3fs recomputed=%llu "
                "shipped=%.1fMB failures=%d "
                "peak_join_state=%.1fMB peak_other_state=%.1fKB",
                batches.size(), TotalLatencySec(), TotalCpuSec(),
                static_cast<unsigned long long>(TotalRecomputedRows()),
                TotalShippedBytes() / 1e6, TotalFailureRecoveries(),
                PeakJoinStateBytes() / 1e6, PeakOtherStateBytes() / 1e3);
  std::string out = buf;
  // Program-verification detail only when expressions were compiled at
  // all; a rejection is a compiler bug and must be visible in the line.
  if (programs_compiled > 0 || programs_rejected > 0 ||
      compile_refusals > 0) {
    std::snprintf(buf, sizeof(buf),
                  " programs=%d verified=%d rejected=%d refused=%d",
                  programs_compiled, programs_verified, programs_rejected,
                  compile_refusals);
    out += buf;
  }
  // Recovery detail only when anything actually went wrong, keeping the
  // healthy-run summary line unchanged.
  if (TotalFailureRecoveries() > 0 || TotalCorruptCheckpoints() > 0 ||
      DegradedMode()) {
    std::snprintf(buf, sizeof(buf),
                  " max_rollback_depth=%d full_restarts=%d "
                  "corrupt_checkpoints=%d injected=%d frozen_replays=%d "
                  "exhausted=%d degraded=%d",
                  MaxRollbackDepth(), TotalFullRestarts(),
                  TotalCorruptCheckpoints(), TotalInjectedFaults(),
                  TotalFrozenReplayBatches(), TotalRecoveriesExhausted(),
                  DegradedMode() ? 1 : 0);
    out += buf;
  }
  return out;
}

}  // namespace iolap
