#ifndef IOLAP_IOLAP_METRICS_H_
#define IOLAP_IOLAP_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace iolap {

/// Wall seconds of one block's phases in one batch (INTERNALS §2), one
/// clock read per phase boundary: building the block's input (for a
/// snapshot consumer, its feed from the registry) and joining the deltas;
/// the evaluation phase (classification, row programs, per-trial
/// re-evaluation); the serial apply (constraint replay and routing); the
/// trial flush; and the publication walk.
struct BlockPhaseTimes {
  double join_sec = 0.0;
  double evaluate_sec = 0.0;
  double apply_sec = 0.0;
  double flush_sec = 0.0;
  double publish_sec = 0.0;
};

/// Per-mini-batch measurements: the raw series behind every plot in the
/// paper's evaluation (latency per batch, tuples recomputed, operator state
/// sizes, data shipped, failure recoveries).
///
/// Thread contract: metrics are plain data, written only by the controller
/// thread between batches (never from pool workers — worker-side costs are
/// aggregated into the per-batch record during the serial apply phase), so
/// they carry no locks and no IOLAP_GUARDED_BY; readers may inspect them
/// freely once Run() returns or from the observer callback, which the
/// controller invokes serially. See docs/INTERNALS.md §8.
struct BatchMetrics {
  int batch = 0;
  double latency_sec = 0.0;
  /// Process CPU seconds consumed during the batch (all threads). With
  /// intra-batch parallelism (EngineOptions::num_threads > 0) this exceeds
  /// latency_sec; the ratio cpu_sec / latency_sec approximates the
  /// effective parallel speedup of the batch.
  double cpu_sec = 0.0;
  /// Wall seconds of the controller's phases, parts of latency_sec (one
  /// clock read per phase boundary): failure recovery (restores and
  /// replays, the replayed batches' record seals included; 0 in a batch
  /// that did not recover), sealing this
  /// batch's undo record (eviction included), building the delivered
  /// result, and state-byte accounting. The rest of latency_sec is the
  /// blocks' batch processing (QueryMetrics::BlockPhases).
  double recovery_sec = 0.0;
  double checkpoint_sec = 0.0;
  double result_sec = 0.0;
  double accounting_sec = 0.0;
  /// Fraction of the streamed relation processed after this batch.
  double fraction_processed = 0.0;
  /// New input tuples scanned this batch.
  uint64_t input_rows = 0;
  /// Previously-seen tuples re-evaluated this batch: non-deterministic-set
  /// refreshes, HDA full re-evaluations and failure-recovery reprocessing
  /// (Fig. 8(e)/(f)).
  uint64_t recomputed_rows = 0;
  /// Operator state bytes at the end of the batch, split as the paper
  /// splits them (Fig. 9(b)): JOIN caches vs everything else (sketches,
  /// non-deterministic sets, sink, variation ranges).
  uint64_t join_state_bytes = 0;
  uint64_t other_state_bytes = 0;
  /// Bytes the shuffle/broadcast cost model charges this batch, recovery
  /// replays included (Figs. 9(c)/10(d); see BlockBatchStats::shipped_bytes
  /// and EXPERIMENTS.md).
  uint64_t shipped_bytes = 0;
  /// Variation-range integrity failures that triggered recovery this batch
  /// (Fig. 9(d)).
  int failure_recoveries = 0;
  /// Deepest single rollback this batch, in batches rewound (current batch
  /// minus restore point; a full restart of batch b counts b + 1).
  int rollback_depth_max = 0;
  /// Recoveries that degraded to a full restart (target older than the
  /// checkpoint ring reaches, a corrupt undo record on the way, or storm
  /// level 3).
  int full_restarts = 0;
  /// Recoveries that found an undo record whose checksum failed
  /// verification; each one forced a full restart.
  int corrupt_checkpoints = 0;
  /// Recoveries whose failure verdicts were all failpoint-injected (the
  /// replay runs with unfrozen ranges and reproduces the fault-free bits).
  int injected_faults = 0;
  /// Replayed batches processed with frozen variation ranges (natural
  /// recoveries only), summed over this batch's recoveries.
  int frozen_replay_batches = 0;
  /// 1 when this batch exhausted its failure recoveries (32) and fell back
  /// to classification-free processing.
  int recoveries_exhausted = 0;
  /// Recovery-storm degradation level in effect after this batch:
  /// 0 = none, 1 = slack widened, 2 = pruning disabled,
  /// 3 = classification-free.
  int degrade_level = 0;
};

/// Accumulated metrics of one incremental query execution.
struct QueryMetrics {
  std::vector<BatchMetrics> batches;
  /// Each block's phase times of each batch's own pass, parts of the rest
  /// of that batch's latency_sec (replays count in recovery_sec only):
  /// batch i's, by block id, at [i * num_blocks, (i + 1) * num_blocks).
  /// One array per run, sized when it starts, so that a batch allocates
  /// nothing to record them.
  size_t num_blocks = 0;
  std::vector<BlockPhaseTimes> block_phases;
  /// Batch i's phase times, num_blocks of them.
  const BlockPhaseTimes* BlockPhases(size_t i) const {
    return block_phases.data() + i * num_blocks;
  }

  /// Compile→verify counters of the expression-program seam
  /// (exec/program_verifier.h), summed over all blocks at query Init —
  /// query-level, not per batch. A rejection (by the static verifier or
  /// the plan invariant prover) or a compiler refusal fails Init, so both
  /// read 0 on every query that runs.
  int programs_compiled = 0;
  int programs_verified = 0;
  int programs_rejected = 0;
  int compile_refusals = 0;

  double TotalLatencySec() const;
  /// Process CPU time summed over batches; compare with TotalLatencySec()
  /// to see how much intra-batch parallelism the run achieved.
  double TotalCpuSec() const;
  uint64_t TotalRecomputedRows() const;
  uint64_t TotalShippedBytes() const;
  uint64_t MaxShippedBytesPerBatch() const;
  double AvgShippedBytesPerBatch() const;
  int TotalFailureRecoveries() const;
  int TotalFullRestarts() const;
  int TotalCorruptCheckpoints() const;
  int TotalInjectedFaults() const;
  int TotalFrozenReplayBatches() const;
  int TotalRecoveriesExhausted() const;
  /// Deepest rollback across the run (0 = no recovery ever rewound state).
  int MaxRollbackDepth() const;
  /// True when the run ended in any degraded mode (degrade_level > 0 on the
  /// final batch): results are still exact, but pruning was reduced or off.
  bool DegradedMode() const;
  uint64_t PeakJoinStateBytes() const;
  uint64_t PeakOtherStateBytes() const;
  double AvgOtherStateBytes() const;
  /// Cumulative latency until the result first covers `fraction` of the
  /// streamed relation: sums latency_sec over batches (in order) through
  /// the first batch whose fraction_processed reaches `fraction`. Keyed on
  /// fraction_processed, not on batch index — with uneven mini-batch sizes
  /// the two differ.
  double LatencyToFraction(double fraction) const;
  /// Each block phase summed over blocks and batches.
  BlockPhaseTimes TotalBlockPhases() const;

  std::string Summary() const;
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_METRICS_H_
