#ifndef IOLAP_IOLAP_QUERY_CONTROLLER_H_
#define IOLAP_IOLAP_QUERY_CONTROLLER_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "bootstrap/error_estimate.h"
#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "iolap/delta_engine.h"
#include "iolap/metrics.h"

namespace iolap {

/// One partial (or final) query answer: the current result relation plus a
/// bootstrap error estimate for every approximate column — what iOLAP
/// streams to the user after every mini-batch (§2).
struct PartialResult {
  int batch = 0;
  /// Fraction of the streamed relation folded in so far (1.0 = exact).
  double fraction_processed = 1.0;
  Table rows;
  /// Output-schema column indexes that carry error estimates.
  std::vector<int> estimated_columns;
  /// estimates[r][k] is the estimate of rows.row(r)[estimated_columns[k]].
  std::vector<std::vector<ErrorEstimate>> estimates;
};

/// Observer verdict after each delivered partial result — the user's "stop
/// when accurate enough" control (§2, POSTGRES-OLA style).
enum class BatchAction { kContinue, kStop };

using ResultObserver = std::function<BatchAction(const PartialResult&)>;

/// Drives one incremental query: partitions the streamed relation into
/// mini-batches, schedules the per-block delta updates in topological
/// order, monitors variation-range integrity and performs failure recovery
/// (§7 "Query Controller"). Create via Session, or directly for tests.
class QueryController {
 public:
  QueryController(const Catalog* catalog, QueryPlan plan,
                  EngineOptions options);

  /// Analyzes the plan, partitions the streamed table, builds executors.
  Status Init();

  /// Runs all mini-batches, invoking `observer` (may be null) after each.
  /// On success the final result is available via last_result().
  Status Run(const ResultObserver& observer);

  const QueryMetrics& metrics() const { return metrics_; }
  const PartialResult& last_result() const { return last_result_; }
  const QueryPlan& plan() const { return plan_; }
  size_t num_batches() const { return layout_.batches.size(); }

  /// Mini-batch layout of the streamed relation (valid after Init):
  /// exposes which base rows arrive in which batch, so tests and tools can
  /// reconstruct the accumulated sample D_i.
  const BatchLayout& layout() const { return layout_; }

  /// The §5 non-deterministic set size summed over blocks (Fig. 9(e)).
  size_t PendingCount() const;

  /// Checkpoint ring: per retained batch, one snapshot per block.
  using CheckpointRing = std::deque<
      std::vector<std::shared_ptr<const BlockExecutor::Checkpoint>>>;

  /// Checkpoint-ring introspection for tests: the retained entries
  /// (bounded by EngineOptions::checkpoint_history — corrupt snapshots are
  /// pruned during recovery, so the ring never accretes dead payloads),
  /// their count, and their approximate retained bytes, counting sketch
  /// nodes shared between snapshots once.
  const CheckpointRing& checkpoint_ring() const { return checkpoints_; }
  size_t checkpoint_ring_size() const { return checkpoints_.size(); }
  size_t CheckpointRingBytes() const;

 private:
  /// Runs every block for batch `b`; returns a rollback target or
  /// BlockExecutor::kNoRollback. `injected_only` (optional) reports whether
  /// every executor that requested the rollback attributes it solely to
  /// failpoint-injected verdicts.
  int ProcessOneBatch(int b, BlockBatchStats* stats,
                      bool* injected_only = nullptr);

  /// Sums the executors' compile→verify counters into metrics_. Called at
  /// Init and again after each Run resets the metrics (the counters are
  /// Init-time facts and must survive the per-run reset).
  void FoldVerifierStats();

  /// Restores all state to the newest verifiable checkpoint at or before
  /// batch `target` (-1, or no usable candidate, = full restart). Corrupt
  /// checkpoints (checksum mismatch) are skipped with escalation to the
  /// next older snapshot. Natural failures freeze recovered variation
  /// ranges through the replay window; `injected` recoveries replay
  /// unfrozen (the fault-free bits are reproduced exactly, and no real
  /// mis-decision exists to livelock on). Recovery accounting lands in
  /// `bm`. Returns the batch after which processing must resume.
  int RollbackTo(int target, int current_batch, bool injected,
                 BatchMetrics* bm);

  /// Recovery-storm breaker: staircased, one-way degradation keyed on the
  /// attempt count within one batch — widen envelope slack, then disable
  /// pruning, then (past max_recoveries_per_batch) fall back to
  /// classification-free processing, which cannot fail. Returns the
  /// (possibly overridden) rollback target.
  int ApplyDegradation(int attempts, int rollback, BatchMetrics* bm);

  /// Builds the ExecRow delta of the streamed relation for batch `b`.
  RowBatch StreamDelta(int b) const;

  double ScaleAt(int b) const;

  /// Captures every block's checkpoint after batch `batch` into the ring,
  /// evicting the oldest snapshot past EngineOptions::checkpoint_history.
  void PushCheckpoint(int batch);

  /// Assembles the user-facing result after a batch.
  void BuildResult(int batch);

  const Catalog* catalog_;
  QueryPlan plan_;
  EngineOptions options_;
  std::vector<BlockAnnotations> annotations_;
  std::unique_ptr<AggregateRegistry> registry_;
  /// Intra-batch worker pool shared by every executor (null when
  /// options_.num_threads == 0). Declared before executors_ so it outlives
  /// the BlockExecutors that borrow it.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<BlockExecutor>> executors_;

  std::shared_ptr<const Table> streamed_table_;
  BatchLayout layout_;
  std::vector<size_t> seen_rows_;  // cumulative rows through batch i

  // Checkpoint ring: state snapshots after each of the last K batches.
  CheckpointRing checkpoints_;

  QueryMetrics metrics_;
  PartialResult last_result_;
  bool initialized_ = false;
  /// Highest recovery-storm staircase level reached so far (sticky for the
  /// rest of the run; see ApplyDegradation).
  int degrade_level_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_QUERY_CONTROLLER_H_
