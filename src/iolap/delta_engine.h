#ifndef IOLAP_IOLAP_DELTA_ENGINE_H_
#define IOLAP_IOLAP_DELTA_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bootstrap/error_estimate.h"
#include "bootstrap/poisson_multiplicities.h"
#include "catalog/partitioner.h"
#include "common/thread_pool.h"
#include "exec/batch.h"
#include "exec/expr_program.h"
#include "exec/program_verifier.h"
#include "exec/hash_aggregate.h"
#include "exec/operators.h"
#include "iolap/aggregate_registry.h"
#include "plan/uncertainty_analysis.h"

namespace iolap {

/// How a query is executed.
enum class ExecutionMode {
  /// Traditional batch OLAP: one pass over all data, no bootstrap — the
  /// paper's "baseline".
  kBaseline,
  /// Classical higher-order delta rules (DBToaster-style HDA, §3.1/§8):
  /// inner aggregates are delta-maintained, but every operator that reads a
  /// refining aggregate re-evaluates all previously-processed data each
  /// batch.
  kHda,
  /// The paper's contribution: uncertainty-driven fine-grained delta
  /// updates. OPT1/OPT2 toggles below select the §8.2 ablation points.
  kIolap,
};

/// How approximate results are error-estimated and how variation-range
/// envelopes are derived.
enum class ErrorMethod {
  /// Simulation (poissonized) bootstrap — the paper's default.
  kBootstrap,
  /// Closed-form estimates from input moments (the §9 "analytical
  /// bootstrap [39] is orthogonal" hook): no trial replicas at all, so the
  /// per-tuple ×trials cost disappears. Supported for COUNT/SUM/AVG;
  /// other aggregates report no estimate and classify conservatively.
  kAnalytic,
};

/// Engine knobs; defaults follow the paper's setup (§8: bootstrap with 100
/// trials, slack ε = 2).
struct EngineOptions {
  ExecutionMode mode = ExecutionMode::kIolap;
  ErrorMethod error_method = ErrorMethod::kBootstrap;
  /// OPT1 (§5): variation-range classification of tuple uncertainty. When
  /// off, every tuple whose filter decision reads an uncertain aggregate is
  /// re-evaluated every batch.
  bool tuple_partition = true;
  /// OPT2 (§6): lineage-based lazy evaluation. When off, re-evaluating a
  /// saved tuple re-derives it through the block's join pipeline instead of
  /// refreshing only its uncertain attributes.
  bool lazy_lineage = true;
  /// Bootstrap trials for error estimation and variation ranges.
  int num_trials = 100;
  /// Slack ε of the variation-range estimator.
  double slack = 2.0;
  /// Mini-batch count for the streamed relation.
  size_t num_batches = 40;
  PartitionOptions partition;
  uint64_t seed = 42;
  /// Per-batch state checkpoints retained for failure recovery; rollbacks
  /// deeper than this degrade to a full restart.
  size_t checkpoint_history = 8;
  /// Failure-recovery attempts per batch before the engine falls back to
  /// classification-free (always-correct) processing for the rest of the
  /// run.
  int max_recoveries_per_batch = 32;
  /// Apply the Appendix B viewlet-transformation rewrites (query
  /// decomposition) at compile time. Off by default; see
  /// plan/rewrite_rules.h and bench_ablation_rewrite.
  bool apply_rewrite_rules = false;
  /// Lower filters, aggregate arguments and projections into compiled
  /// register programs (exec/expr_program) with trial-invariant hoisting,
  /// replacing the interpreted per-trial hot loop. Results are bit-identical
  /// to the interpreter (expressions the compiler cannot prove identical
  /// keep the interpreter per block or per row); off = always interpret.
  /// Every compiled program is statically verified (exec/program_verifier.h
  /// + plan/plan_verifier.h) before the engine accepts it; a rejected one is
  /// dropped, the block keeps the interpreter, and QueryMetrics counts the
  /// rejection.
  bool compile_expressions = true;
  /// Worker threads for intra-batch parallelism (classification and
  /// per-trial re-evaluation of the non-deterministic set, bootstrap trial
  /// accumulation). 0 = inline execution, no pool.
  /// Results are bit-identical for every value — parallel phases only
  /// *evaluate*; all state mutation happens in serial row/trial order (see
  /// docs/INTERNALS.md, "Parallelism model").
  size_t num_threads = 0;
  /// Deterministic fault-injection spec armed for the duration of each
  /// Run(), merged after the IOLAP_FAILPOINTS environment spec (so entries
  /// here win on collisions). Grammar in common/failpoint.h; empty = no
  /// injection.
  std::string failpoints;
};

/// Per-batch counters produced by one block (folded into BatchMetrics).
struct BlockBatchStats {
  uint64_t input_rows = 0;
  uint64_t recomputed_rows = 0;
  /// Bytes the shuffle/broadcast cost model charges this block this batch
  /// (Figs. 9(c)/10(d)): fresh joined rows plus their bootstrap
  /// multiplicities, the saved pending rows again when OPT2 is off, and the
  /// published relation broadcast to the other 19 workers of the paper's
  /// 20-node cluster when a downstream block consumes it.
  uint64_t shipped_bytes = 0;
};

/// Executes one lineage block incrementally: join deltas through cached
/// join states, classify filter decisions against variation ranges,
/// maintain the aggregate sketch and the non-deterministic set, publish the
/// block's (scaled) aggregate relation to the registry. One BlockExecutor
/// per block, driven in topological order by the QueryController.
class BlockExecutor {
 public:
  /// Returned by ProcessBatch when no rollback is needed.
  static constexpr int kNoRollback = -2;

  /// `pool` (nullable, not owned) provides intra-batch parallelism; null
  /// runs every phase inline on the caller.
  BlockExecutor(const QueryPlan* plan, int block_id,
                const std::vector<BlockAnnotations>* annotations,
                const EngineOptions* options, AggregateRegistry* registry,
                BootstrapWeights bootstrap, bool consumed_downstream,
                bool feeds_join, ThreadPool* pool = nullptr);

  /// Runs one mini-batch. `input_deltas[k]` holds the new rows of input k
  /// this batch, which the block takes over; `scale` is m_i = |D| / |D_i|.
  /// Returns kNoRollback on success, otherwise the batch to roll back to
  /// (-1 = full restart) after a variation-range integrity failure.
  int ProcessBatch(int batch, double scale, std::vector<RowBatch> input_deltas,
                   BlockBatchStats* stats);

  /// The join feed of an aggregate block: the groups whose registry entry
  /// this batch's publication created (keys + current scaled values), in
  /// walk order — the delta rows of downstream kBlockOutput joins, which
  /// read later values through lineage lookups. Empty unless the block
  /// feeds a join.
  const RowBatch& new_output_rows() const { return new_output_rows_; }

  /// Compile→verify counters for this block's programs (row + projection),
  /// filled at construction; the controller folds them into QueryMetrics.
  const ProgramVerifierStats& verifier_stats() const {
    return verifier_stats_;
  }

  /// Current full output of a non-aggregate (top SPJ) block: permanently
  /// selected rows plus currently-passing non-deterministic rows, with
  /// uncertain attributes refreshed and projections applied. `estimates`
  /// receives, per emitted row, the estimate of each uncertain projection in
  /// column order: a pass-through column's registry Estimate, or
  /// EstimateError over a computed column's per-trial re-projections.
  Table CurrentSpjOutput(
      std::vector<std::vector<ErrorEstimate>>* estimates) const;

  /// Size of the non-deterministic set (Fig. 9(e)).
  size_t PendingCount() const { return pending_.size(); }

  size_t JoinStateBytes() const;
  size_t OtherStateBytes() const;

  /// Disables range-based pruning for the rest of the run (recovery storm
  /// fallback; keeps results exact at HDA-like cost).
  void DisableClassification() { classification_disabled_ = true; }

  /// Recovery-storm staircase level 2 (softer than DisableClassification):
  /// Classify stops deciding — every uncertain-filter tuple routes to the
  /// non-deterministic set and no *new* obligations are registered — but
  /// range maintenance stays on, so the obligations already registered are
  /// still verified and can still escalate the recovery.
  void DisablePruning() { pruning_disabled_ = true; }

  /// True when the last ProcessBatch's rollback request (if any) came only
  /// from failpoint-injected spurious verdicts: the controller replays it
  /// with unfrozen ranges, reproducing the fault-free run bit for bit.
  bool rollback_injected() const { return rollback_injected_; }

  /// A block whose single input is an upstream aggregate's output is a
  /// *snapshot consumer*: it re-evaluates the upstream's (small) output
  /// relation from scratch every batch instead of keeping delta state.
  /// This is how post-aggregation projections and HAVING filters run —
  /// O(#groups) per batch — and it is immune to revocable group
  /// membership: the controller feeds it the upstream's live registry
  /// groups of the batch (AggregateRegistry::LiveGroups), so a group whose
  /// contributions lapsed is not in its input.
  bool stateless() const { return stateless_; }

  // --- checkpointing for failure recovery (§5.1) -------------------------

  /// A self-contained snapshot of the block's state after one batch. Its
  /// sketch shares unchanged group nodes with the live sketch and with the
  /// other snapshots in the ring (copy-on-write, see GroupedAggregateState);
  /// a stateless block captures only the batch and the watermarks.
  struct Checkpoint {
    int batch = 0;
    std::vector<JoinStep::Watermark> join_marks;
    std::vector<ExecRow> pending;
    GroupedAggregateState sketch;
    size_t sink_watermark = 0;
    /// Content hash computed at capture (see ChecksumCheckpoint). Restoring
    /// verifies it; a mismatch means the snapshot is corrupt and the
    /// controller escalates to an older checkpoint or a full restart
    /// instead of silently replaying bad state.
    uint64_t checksum = 0;

    /// Approximate retained bytes, for ring-size accounting in the
    /// controller: sketch nodes already in `counted` are skipped (see
    /// GroupedAggregateState::ByteSize).
    size_t ByteSize(
        std::unordered_set<const GroupedAggregateState::GroupCells*>* counted)
        const;
  };

  std::shared_ptr<const Checkpoint> MakeCheckpoint(int batch) const;

  /// Order-insensitive content hash over everything a restore would replay
  /// (batch, join watermarks, pending rows, sketch accumulator results).
  /// Capture passes `use_cache` to reuse the per-group hashes of nodes not
  /// written since they were last hashed; verification recomputes
  /// everything from content.
  static uint64_t ChecksumCheckpoint(const Checkpoint& checkpoint,
                                     bool use_cache);

  /// True when `checkpoint`'s checksum matches its content. The
  /// checkpoint-restore-fault failpoint forces a mismatch here.
  static bool VerifyCheckpoint(const Checkpoint& checkpoint);

  void Restore(const Checkpoint& checkpoint);
  /// Drops all state (full restart).
  void Reset();

 private:
  // --- intra-batch parallelism ------------------------------------------
  // ProcessBatch splits each hot loop into a pure *evaluation* phase (runs
  // on the pool; reads only the row, the immutable plan, and the registry,
  // which is frozen during a batch) and a serial *apply* phase that mutates
  // engine state in the original row order. The same structure runs inline
  // when no pool is attached, so results are bit-identical for every
  // thread count.

  /// One constraint registration buffered during parallel classification
  /// and replayed onto the registry in serial row order. Replay-time
  /// registration is equivalent: within a batch ConstrainUpper/Lower only
  /// fold min/max bounds that always contain the tracker's current range,
  /// so neither classification outcomes nor the final registered bounds
  /// depend on registration order.
  struct ConstraintOp {
    enum class Kind : uint8_t { kUpper, kLower, kContainment };
    Kind kind;
    int block;
    int col;
    Row key;
    double bound = 0.0;
  };

  /// Per-row output of the parallel evaluation phase.
  struct RowEval {
    IntervalTruth truth = IntervalTruth::kUndecided;
    /// Row routes to the non-deterministic path (undecided, or decided
    /// true but permanently unsketchable).
    bool pending_route = false;
    /// Main (trial = -1) filter decision of a pending-routed row.
    bool main_pass = false;
    Row key;                       // group key (aggregate blocks only)
    /// HashRow(key), computed during the parallel evaluation phase so the
    /// serial apply phase probes the group maps without re-hashing.
    uint64_t key_hash = 0;
    std::vector<Value> main_vals;  // agg args at trial -1 (main_pass only)
    /// Per-trial surviving weight; 0 = multiplicity zero or filter failed
    /// under that resample.
    std::vector<double> trial_w;
    /// Agg args per surviving trial, flattened [t * num_aggs + a].
    std::vector<Value> trial_vals;
    std::vector<ConstraintOp> constraints;
  };

  /// Deferred trial-replica contribution of a pending row to its group's
  /// aggregates `accs[0..]`: values and weights differ per trial and live
  /// in row_scratch_[eval_idx].
  struct PendingTrialAdd {
    TrialAccumulatorSet* accs;
    uint32_t eval_idx;
  };

  EvalContext MainContext() const;

  /// Incremental multi-way join of this batch's input deltas.
  RowBatch JoinDeltas(std::vector<RowBatch> input_deltas);

  /// Refreshes the row's uncertain attributes in place by re-evaluating
  /// their lineage (§6.2). With `charge_regeneration` (OPT2 off, for saved
  /// state rows), additionally performs the work of re-deriving the tuple
  /// through the block's join pipeline (hash probes + rematerialization).
  void RefreshRow(ExecRow* row, bool charge_regeneration) const;

  /// Classifies the filter decision for `row` (§5.2 SELECT rule),
  /// registering decided-outcome obligations onto `sink` (buffered; the
  /// caller replays them serially).
  IntervalTruth Classify(const ExecRow& row, RangeConstraintSink* sink) const;

  /// Evaluation phase for one row: refresh, classify, and — when the row
  /// routes to the non-deterministic path — the per-trial filter/argument
  /// evaluations. Pure except for the in-place row refresh; safe to run
  /// concurrently per row. `prog_state` is the caller's lane-private
  /// compiled-program scratch (null = interpret).
  void EvaluateRow(ExecRow* row, bool charge_regeneration, RowEval* ev,
                   ExprProgramState* prog_state) const;

  /// Compiled fast path for the non-deterministic part of EvaluateRow:
  /// one Bind (prologue + batched aggregate probes) plus the per-trial
  /// epilogue via EvalTrials. Returns false when the row hit a construct
  /// the program does not cover — the caller redoes the row with the
  /// interpreter, so results never change.
  bool EvaluateRowCompiled(const ExecRow& row, RowEval* ev,
                           ExprProgramState* ps) const;

  /// Routes an evaluated row: sketch/sink for certain rows, the pending
  /// (non-deterministic) set otherwise. Serial apply phase.
  void RouteRow(ExecRow row, size_t eval_idx, int batch,
                GroupedAggregateState* temp, std::vector<ExecRow>* new_pending)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Adds a certain row's aggregate contributions to `target`: main
  /// accumulators immediately, trial replicas deferred to the flush.
  void AccumulateCertain(const ExecRow& row, int batch,
                         GroupedAggregateState* target)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Applies a pending row's revocable contributions to `temp` from its
  /// precomputed RowEval (aggregate blocks): main accumulators immediately,
  /// trial replicas deferred to the flush.
  void ApplyPending(const ExecRow& row, size_t eval_idx, int batch,
                    GroupedAggregateState* temp)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Drains the deferred trial-replica adds, partitioned across the pool
  /// by trial index: lanes own disjoint trial states, and each (accumulator,
  /// trial) receives its adds in serial-apply (row) order, so the result is
  /// bit-identical for every thread count. (Entered from the serial phase;
  /// the internal fan-out mutates lane-disjoint trial states only.)
  void FlushDeferredTrials() IOLAP_REQUIRES(engine_serial_phase);

  /// Publishes sketch ∪ temp to the registry; returns rollback target or
  /// kNoRollback.
  int PublishOutput(int batch, double scale, const GroupedAggregateState& temp,
                    BlockBatchStats* stats) IOLAP_REQUIRES(engine_serial_phase);

  Row GroupKeyOf(const ExecRow& row) const;

  bool classification_enabled() const {
    return options_->mode == ExecutionMode::kIolap &&
           options_->tuple_partition && !classification_disabled_;
  }
  bool lazy_enabled() const {
    return options_->mode == ExecutionMode::kIolap && options_->lazy_lineage;
  }

  const QueryPlan* plan_;
  const Block* block_;
  const BlockAnnotations* ann_;
  const EngineOptions* options_;
  AggregateRegistry* registry_;
  ThreadPool* pool_;  // not owned; null = inline
  BootstrapWeights bootstrap_;
  bool consumed_downstream_;
  bool feeds_join_;
  bool any_agg_arg_uncertain_ = false;
  bool classification_disabled_ = false;
  bool pruning_disabled_ = false;
  bool rollback_injected_ = false;
  bool stateless_ = false;
  /// Set after a rollback/reset: registry values may be newer than the
  /// restored sketches, so the next batch republishes every group.
  bool force_full_publish_ = false;

  // Compiled expression programs (exec/expr_program), built once at plan
  // time and shared read-only across lanes; null = expression not compiled
  // (flag off, or a construct the compiler refuses). row_program_'s roots
  // are [filter?] + aggregate arguments; proj_program_'s are the
  // projections of a non-aggregate block.
  std::unique_ptr<const ExprProgram> row_program_;
  std::unique_ptr<const ExprProgram> proj_program_;
  int filter_root_ = -1;   // root index of the filter in row_program_
  int arg_root_base_ = 0;  // root index of aggregate argument 0
  ProgramVerifierStats verifier_stats_;
  /// Lane-private evaluation scratch, one per pool lane (index = the lane
  /// argument ParallelRanges hands each range; inline mode uses lane 0).
  std::vector<ExprProgramState> prog_states_;
  /// Scratch for proj_program_ (CurrentSpjOutput is const and serial).
  mutable ExprProgramState proj_state_;
  /// Per projection of a non-aggregate block: the lineage of the upstream
  /// aggregate cell it passes through unchanged, else null.
  std::vector<const AggLookupExpr*> pass_through_;
  /// Some uncertain projection is computed, not passed through: its
  /// estimate needs per-trial re-projection.
  bool per_trial_projections_ = false;

  // Operator states (§4.2).
  std::vector<JoinStep> join_steps_;
  std::vector<ExecRow> pending_;  // the non-deterministic set U
  GroupedAggregateState sketch_;
  std::vector<ExecRow> sink_rows_;  // non-aggregate top block only
  size_t sink_bytes_ = 0;           // BatchByteSize(sink_rows_)

  RowBatch new_output_rows_;
  /// Non-aggregate block: indices into pending_ of the rows passing now.
  std::vector<size_t> pending_passing_;
  /// Groups whose last publication included a revocable (non-deterministic)
  /// contribution: they must be republished even if untouched, because the
  /// contribution may have lapsed.
  std::unordered_set<Row, RowHash, RowEq> prev_temp_keys_;

  // Per-batch scratch (cleared at the end of ProcessBatch; members only to
  // reuse capacity across batches). Deferred records hold accumulator
  // pointers, which are stable: GroupCells are heap nodes whose `aggs`
  // vectors are sized once at creation, and no checkpoint is taken within
  // a batch, so GetOrCreate clones a shared node at most once per batch,
  // before any record points into it.
  std::vector<RowEval> row_scratch_;
  DeferredTrialFolds deferred_certain_;
  std::vector<PendingTrialAdd> deferred_pending_;
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_DELTA_ENGINE_H_
