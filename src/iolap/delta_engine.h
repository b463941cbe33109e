#ifndef IOLAP_IOLAP_DELTA_ENGINE_H_
#define IOLAP_IOLAP_DELTA_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
#include "iolap/metrics.h"
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
  /// Batches a failure recovery can rewind to (the state after each of the
  /// last checkpoint_history batches); rollbacks deeper than this degrade
  /// to a full restart. The undo log keeps the records of the last
  /// checkpoint_history - 1 sealed batches plus the batch in progress.
  size_t checkpoint_history = 8;
  /// Apply the Appendix B viewlet-transformation rewrites (query
  /// decomposition) at compile time. Off by default; see
  /// plan/rewrite_rules.h and bench_ablation_rewrite.
  bool apply_rewrite_rules = false;
  /// Worker threads for intra-batch parallelism (classification and
  /// per-trial re-evaluation of the non-deterministic set, bootstrap trial
  /// accumulation). 0 = inline execution, no pool. The driving thread runs
  /// one lane of every parallel phase itself, so n workers make n + 1
  /// lanes.
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

  /// The rows lane `lane` of `lanes` evaluates in a batch evaluated in the
  /// order [num_fresh fresh rows, num_pending rows of U]: the lane's
  /// ThreadPool::Slice of the fresh rows, then of U, as [begin, end)
  /// indices into that order. A row of U runs its epilogue once per
  /// surviving trial, so every lane takes its share of U.
  static std::array<std::pair<size_t, size_t>, 2> EvaluationSlices(
      size_t num_fresh, size_t num_pending, size_t lanes, size_t lane) {
    const auto [fresh_begin, fresh_end] =
        ThreadPool::Slice(num_fresh, lanes, lane);
    const auto [pending_begin, pending_end] =
        ThreadPool::Slice(num_pending, lanes, lane);
    return {{{fresh_begin, fresh_end},
             {num_fresh + pending_begin, num_fresh + pending_end}}};
  }

  /// `pool` (nullable, not owned) provides intra-batch parallelism; null
  /// runs every phase inline on the caller.
  BlockExecutor(const QueryPlan* plan, int block_id,
                const std::vector<BlockAnnotations>* annotations,
                const EngineOptions* options, AggregateRegistry* registry,
                BootstrapWeights bootstrap, bool consumed_downstream,
                bool feeds_join, ThreadPool* pool = nullptr);

  /// Runs one mini-batch. `input_deltas[k]` holds the new rows of input k
  /// this batch, which the block takes over; `scale` is m_i = |D| / |D_i|.
  /// A snapshot consumer's input rows are the upstream's LiveGroups of the
  /// batch, in that order. Adds the wall time of each phase to `phases`
  /// when it is not null. Returns kNoRollback on success, otherwise the
  /// batch to roll back to (-1 = full restart) after a variation-range
  /// integrity failure.
  int ProcessBatch(int batch, double scale, std::vector<RowBatch> input_deltas,
                   BlockBatchStats* stats, BlockPhaseTimes* phases = nullptr);

  /// The join feed of an aggregate block: the groups whose registry slot
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

  /// Not OK when a program of the block was refused by the compiler or
  /// rejected by a verifier: the block has no evaluator, and the controller
  /// fails Init with this Status, which names the rule.
  const Status& compile_status() const { return compile_status_; }

  /// Current full output of a non-aggregate (top SPJ) block: permanently
  /// selected rows plus currently-passing non-deterministic rows, projected
  /// with every uncertain attribute read through its lineage. `estimates`
  /// receives, per emitted row, the estimate of each uncertain projection in
  /// column order: a pass-through column's registry Estimate, or
  /// EstimateError over a computed column's per-trial re-projections.
  Table CurrentSpjOutput(
      std::vector<std::vector<ErrorEstimate>>* estimates) const;

  /// Per projection of a non-aggregate block: the lineage of the upstream
  /// aggregate cell it passes through unchanged, else null. The result of
  /// an SPJ top estimates these cells.
  const std::vector<const AggLookupExpr*>& pass_through() const {
    return pass_through_;
  }

  /// Size of the non-deterministic set (Fig. 9(e)).
  size_t PendingCount() const { return pending_.size(); }

  size_t JoinStateBytes() const;
  /// Sketch, U and sink bytes, from running counts: valid after a
  /// SealRecord (or an undo), which is when the controller reads it.
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

  /// Read-only views of the block's recoverable state: the sketch (an
  /// aggregate block's certain contributions), the non-deterministic set U,
  /// the sink (a non-aggregate block's certain rows) and the join caches'
  /// watermarks.
  const GroupedAggregateState& sketch() const { return sketch_; }
  const std::vector<ExecRow>& pending_rows() const { return pending_; }
  const std::vector<ExecRow>& sink_rows() const { return sink_rows_; }
  std::vector<JoinStep::Watermark> JoinWatermarks() const;

  // --- undo log for failure recovery (§5.1) ------------------------------

  /// What one batch changed in the block's state, enough to undo it.
  /// Restoring the state after batch t undoes the records of the batches
  /// after t, newest first. A record holds only what its batch wrote, so
  /// sealing, checksumming and dropping one costs O(groups written + rows
  /// entering or leaving U). A stateless block clears its state at every
  /// batch, so undoing its record clears it too.
  struct UndoRecord {
    /// The batch whose changes the record undoes.
    int batch = 0;
    // The state before the batch: join watermarks, sink size, and the
    // running byte counts of the sink and of U.
    std::vector<JoinStep::Watermark> join_marks;
    size_t sink_watermark = 0;
    size_t sink_bytes = 0;
    size_t pending_bytes = 0;
    /// The sketch's group count, bytes and pre-images from before the batch.
    GroupedAggregateState::Undo sketch;
    /// The batch rebuilt U as [fresh rows routed pending] followed by [old
    /// rows still pending]: the length of the first part, and each old row
    /// that left U with its index in the old U, in index order.
    size_t fresh_pending = 0;
    std::vector<std::pair<size_t, ExecRow>> left_pending;
    /// Checksum over everything an undo replays (batch, watermarks, byte
    /// counts, pre-image positions and content hashes, the rows that left
    /// U), computed when the record is sealed. Restoring verifies it first;
    /// a mismatch means the record is corrupt, so neither it nor anything
    /// older can be undone and the controller falls back to a full restart.
    uint64_t checksum = 0;
    /// Approximate bytes the record retains (its pre-images and the rows
    /// that left U), for the controller's running ring count.
    size_t bytes = 0;
  };

  /// Closes the open record — the changes of `batch`, which the last
  /// ProcessBatch applied — checksums it, and opens the next. Also folds the
  /// batch's sketch writes into OtherStateBytes().
  UndoRecord SealRecord(int batch);

  /// True when `record`'s checksum matches its content. The
  /// checkpoint-restore-fault failpoint forces a mismatch here.
  static bool VerifyRecord(const UndoRecord& record);

  /// Undoes the batch processed since the last SealRecord.
  void UndoOpenBatch();
  /// Undoes a sealed record: call UndoOpenBatch first, then undo the
  /// records newest first.
  void Undo(UndoRecord record);
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

  /// Per-row output of the parallel evaluation phase: with the row's slices
  /// of row_vals_, trial_w_ and trial_args_, everything the serial apply
  /// phase and the trial flush fold, so neither evaluates anything.
  struct RowEval {
    IntervalTruth truth = IntervalTruth::kUndecided;
    /// Row routes to the non-deterministic path (undecided, or decided
    /// true but permanently unsketchable).
    bool pending_route = false;
    /// Main (trial = -1) filter decision of a pending-routed row.
    bool main_pass = false;
    /// Some trial of an aggregate block's pending row kept a nonzero
    /// weight in trial_w_: the lane that wrote the weights decides it, so
    /// the serial apply reads none of them.
    bool any_trial = false;
    /// HashValues of the row's group key (aggregate blocks only), computed
    /// during the parallel evaluation phase so the serial apply phase
    /// probes the group maps without re-hashing.
    uint64_t key_hash = 0;
    std::vector<ConstraintOp> constraints;
  };
  static_assert(sizeof(RowEval) ==
                    2 * sizeof(uint64_t) + sizeof(std::vector<ConstraintOp>),
                "RowEval's flags share the padding before key_hash");

  /// The deferred trial fold of one row, certain or pending, into its
  /// group's aggregates `accs[0..]`: its weights and arguments are row
  /// `eval_idx`'s slices of trial_w_ and row_vals_ (trial_args_ in a block
  /// whose arguments read uncertain values).
  struct TrialFold {
    TrialAccumulatorSet* accs;
    uint32_t eval_idx;
  };

  /// Incremental multi-way join of this batch's input deltas.
  RowBatch JoinDeltas(std::vector<RowBatch> input_deltas);

  /// Without lineage-based lazy evaluation (OPT2 off), performs the work of
  /// re-deriving a saved tuple through the block's join pipeline (hash
  /// probes + rematerialization). Its values do not change: every program
  /// reads an uncertain column through its lineage (§6.2).
  void RegenerateRow(ExecRow* row) const;

  /// Classifies an uncertain filter against the variation ranges of the
  /// aggregates it reads (§5.2 SELECT rule), registering decided-outcome
  /// obligations onto `sink` (buffered; the caller replays them serially).
  IntervalTruth ClassifyUncertainFilter(const ExecRow& row,
                                        RangeConstraintSink* sink) const;

  /// Evaluation phase for one row: classify, then run the row program's
  /// main pass (a deterministic filter's truth, the group key and the
  /// aggregate arguments, into `vals`, the row's slice of row_vals_). An
  /// aggregate block's row that folds gets its weight per trial in
  /// `trial_w`, its slice of trial_w_; a row bound for the
  /// non-deterministic path then runs its per-trial filter, which zeroes
  /// the trials it fails, and writes its per-trial arguments into
  /// `trial_args`, its slice of trial_args_ (null unless the arguments
  /// read uncertain values). Pure except for the OPT2-off regeneration;
  /// safe to run concurrently per row. `prog_state` is the caller's
  /// lane-private program scratch.
  void EvaluateRow(ExecRow* row, bool charge_regeneration, RowEval* ev,
                   Value* vals, double* trial_w, TrialArg* trial_args,
                   ExprProgramState* prog_state) const;

  /// `old_index` of a fresh row (one not in U before this batch).
  static constexpr size_t kFreshRow = SIZE_MAX;

  /// Routes an evaluated row: sketch/sink for certain rows, the pending
  /// (non-deterministic) set otherwise. A row of the old U (its index there
  /// is `old_index`) that leaves U goes into the open record, and a fresh
  /// row that enters U is counted there. A snapshot consumer's row takes its
  /// feed slot along. Serial apply phase.
  void RouteRow(ExecRow row, size_t eval_idx, size_t old_index, int batch,
                GroupedAggregateState* temp, std::vector<ExecRow>* new_pending)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Starts the record of the next batch from the current state.
  void OpenRecord();

  /// Adds a certain row's aggregate contributions, evaluated into its
  /// RowEval and row_vals_ slice, to `target`: main accumulators
  /// immediately, trial replicas deferred to the flush.
  void AccumulateCertain(double weight, size_t eval_idx, int batch,
                         GroupedAggregateState* target)
      IOLAP_REQUIRES(engine_serial_phase);

  /// The group key evaluated for row `eval_idx`, with its hash.
  HashedRowRef KeyOf(size_t eval_idx) const {
    return {row_vals_.data() + eval_idx * eval_width_,
            block_->group_by.size(), row_scratch_[eval_idx].key_hash};
  }
  /// The main aggregate arguments evaluated for row `eval_idx`.
  const Value* MainValsOf(size_t eval_idx) const {
    return row_vals_.data() + eval_idx * eval_width_ + block_->group_by.size();
  }

  /// Applies a pending row's revocable contributions to `temp` from its
  /// precomputed RowEval (aggregate blocks): main accumulators immediately,
  /// trial replicas deferred to the flush.
  void ApplyPending(const ExecRow& row, size_t eval_idx, int batch,
                    GroupedAggregateState* temp)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Drains the deferred trial folds, one per folded row in serial-apply
  /// order, partitioned across the pool by trial index: lanes own disjoint
  /// trial states, and each (accumulator, trial) receives its adds in row
  /// order, so the result is bit-identical for every thread count.
  /// (Entered from the serial phase; the internal fan-out mutates
  /// lane-disjoint trial states only.)
  void FlushDeferredTrials() IOLAP_REQUIRES(engine_serial_phase);

  /// Publishes sketch ∪ temp to the registry; returns rollback target or
  /// kNoRollback.
  int PublishOutput(int batch, double scale, const GroupedAggregateState& temp,
                    BlockBatchStats* stats) IOLAP_REQUIRES(engine_serial_phase);

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
  /// Some aggregate argument reads an uncertain value: every row is
  /// pending and folds its per-trial arguments (trial_args_).
  bool any_agg_arg_uncertain_ = false;
  bool classification_disabled_ = false;
  bool pruning_disabled_ = false;
  bool rollback_injected_ = false;
  bool stateless_ = false;
  /// Set after a rollback/reset: registry values may be newer than the
  /// restored sketches, so the next batch republishes every group.
  bool force_full_publish_ = false;

  // Compiled expression programs (exec/expr_program), the block's only row
  // evaluators, built once at plan time and shared read-only across lanes.
  // row_program_'s roots are [filter?] + group keys + aggregate arguments
  // (null when there are none); proj_program_'s are the projections of a
  // non-aggregate block.
  std::unique_ptr<const ExprProgram> row_program_;
  std::unique_ptr<const ExprProgram> proj_program_;
  int filter_root_ = -1;   // root index of the filter in row_program_
  int key_root_base_ = 0;  // root index of group key 0
  int arg_root_base_ = 0;  // root index of aggregate argument 0
  ProgramVerifierStats verifier_stats_;
  Status compile_status_;
  /// Lane-private evaluation scratch, one per pool lane (the workers and
  /// the driving thread; inline mode uses lane 0).
  std::vector<ExprProgramState> prog_states_;
  /// Scratch for proj_program_ (CurrentSpjOutput is const and serial).
  mutable ExprProgramState proj_state_;
  std::vector<const AggLookupExpr*> pass_through_;  // see pass_through()
  /// Some uncertain projection is computed, not passed through: its
  /// estimate needs per-trial re-projection.
  bool per_trial_projections_ = false;

  // Operator states (§4.2).
  std::vector<JoinStep> join_steps_;
  std::vector<ExecRow> pending_;  // the non-deterministic set U
  size_t pending_bytes_ = 0;      // BatchByteSize(pending_), kept running
  GroupedAggregateState sketch_;
  std::vector<ExecRow> sink_rows_;  // non-aggregate top block only
  size_t sink_bytes_ = 0;           // BatchByteSize(sink_rows_)
  /// A snapshot consumer's rows keep the upstream slot they were fed from,
  /// beside the row: this batch's feed (the upstream's LiveGroups, one per
  /// input row), and the slots of sink_rows_ and pending_ by index. Before
  /// evaluating or projecting a row, the consumer primes the registry's
  /// lookup hint with its slot, so the row's lookups of its own group do
  /// not hash its key.
  std::vector<int> feed_slots_;
  std::vector<int> sink_slots_;
  std::vector<int> pending_slots_;
  /// The changes of the batch in progress since the last SealRecord (its
  /// sketch part is kept by sketch_ until the seal).
  UndoRecord open_;

  RowBatch new_output_rows_;
  /// Non-aggregate block: indices into pending_ of the rows passing now.
  std::vector<size_t> pending_passing_;
  /// Per sketch group, by position (stable until an undo, which clears
  /// this): its registry slot, which its last publication returned and its
  /// refreshes pass, and the last batch whose publication walk found
  /// scratch cells for it. A group stamped with the previous batch must be
  /// republished even if untouched, because its revocable
  /// (non-deterministic) contribution may have lapsed.
  struct PublishedGroup {
    int slot = -1;
    int scratch_stamp = -2;  // -2 never equals batch - 1
  };
  std::vector<PublishedGroup> published_;
  /// PublishOutput's materialization buffers, reused across groups and
  /// batches: a group's unscaled main values, replicas [a × trials + t] and
  /// closed-form stddevs (analytic mode).
  std::vector<Value> publish_main_;
  std::vector<double> publish_trials_;
  std::vector<double> publish_sd_;

  // Per-batch scratch (cleared after the trial flush, before the
  // publication; members only to reuse capacity across batches). Trial
  // fold records hold accumulator pointers, which are stable: GroupCells
  // are heap nodes whose `aggs` vectors are sized once at creation, and
  // GetOrCreate clones a node at most once per batch (its first write,
  // which records the pre-image), before any record points into it.
  std::vector<RowEval> row_scratch_;
  /// Row i's group key, then its main aggregate arguments, at [i *
  /// eval_width_, (i + 1) * eval_width_): one flat array per batch, so a
  /// row needs no vectors of its own. A pending row's arguments are written
  /// even when its main filter fails, as its trials fold them.
  std::vector<Value> row_vals_;
  size_t eval_width_ = 0;  // group keys + aggregates (aggregate blocks)
  /// An aggregate block's row i's weight per trial, at [i * trials + t],
  /// for every row that folds, certain or pending: its plain weight, times
  /// its Poisson weight if it is streamed, and 0 where a pending row's
  /// filter fails under that resample. Only where the aggregate arguments
  /// read uncertain values, a pending row's unboxed arguments per trial, at
  /// [(i * trials + t) * aggs + a]; elsewhere every trial folds the main
  /// arguments in row_vals_. Flat arrays by row like row_vals_: the driving
  /// thread grows them before the evaluation phase and keeps them across
  /// batches, so no lane allocates per row and nothing is freed per row.
  std::vector<double> trial_w_;
  std::vector<TrialArg> trial_args_;
  /// One record per folded row, in serial-apply order.
  std::vector<TrialFold> trial_folds_;
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_DELTA_ENGINE_H_
