#include "iolap/query_controller.h"

#include <algorithm>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/timer.h"
#include "plan/uncertainty_analysis.h"

namespace iolap {

QueryController::QueryController(const Catalog* catalog, QueryPlan plan,
                                 EngineOptions options)
    : catalog_(catalog), plan_(std::move(plan)), options_(options) {}

Status QueryController::Init() {
  IOLAP_RETURN_IF_ERROR(ValidatePlan(plan_));
  IOLAP_ASSIGN_OR_RETURN(annotations_, AnalyzeUncertainty(plan_));

  // The baseline is the traditional batch engine: one pass, no bootstrap.
  if (options_.mode == ExecutionMode::kBaseline) {
    options_.num_batches = 1;
    options_.num_trials = 0;
  }
  if (options_.num_trials < 0) {
    return Status::InvalidArgument("num_trials must be >= 0");
  }
  if (options_.error_method == ErrorMethod::kAnalytic) {
    // Closed-form estimation replaces the trial replicas entirely.
    options_.num_trials = 0;
  }

  // Partition the streamed relation into mini-batches (§2).
  if (!plan_.streamed_table.empty()) {
    IOLAP_ASSIGN_OR_RETURN(const TableEntry* entry,
                           catalog_->Find(plan_.streamed_table));
    streamed_table_ = entry->table;
    PartitionOptions popts = options_.partition;
    popts.seed ^= options_.seed;
    IOLAP_ASSIGN_OR_RETURN(
        layout_,
        PartitionIntoBatches(*streamed_table_, options_.num_batches, popts));
  } else {
    layout_.batches.resize(1);  // fully static query: one batch
  }
  seen_rows_.clear();
  size_t cumulative = 0;
  for (const auto& batch : layout_.batches) {
    cumulative += batch.size();
    seen_rows_.push_back(cumulative);
  }

  // Which blocks are consumed downstream (classification depends on their
  // variation ranges), and which feed joins (must emit group-delta rows)?
  // Snapshot consumers read their input from the registry instead.
  std::vector<bool> consumed(plan_.blocks.size(), false);
  std::vector<bool> feeds_join(plan_.blocks.size(), false);
  for (const Block& block : plan_.blocks) {
    const bool snapshot_consumer =
        block.inputs.size() == 1 &&
        block.inputs[0].kind == BlockInput::Kind::kBlockOutput;
    for (const BlockInput& input : block.inputs) {
      if (input.kind == BlockInput::Kind::kBlockOutput) {
        consumed[input.source_block] = true;
        if (!snapshot_consumer) feeds_join[input.source_block] = true;
      }
    }
    std::vector<const AggLookupExpr*> lookups;
    if (block.filter != nullptr) block.filter->CollectAggLookups(&lookups);
    for (const AggSpec& agg : block.aggs) {
      agg.arg->CollectAggLookups(&lookups);
    }
    for (const ExprPtr& p : block.projections) p->CollectAggLookups(&lookups);
    for (const ExprPtr& g : block.group_by) g->CollectAggLookups(&lookups);
    for (const AggLookupExpr* lookup : lookups) {
      consumed[lookup->block_id()] = true;
    }
  }

  registry_ = std::make_unique<AggregateRegistry>(&plan_, options_.slack);
  const BootstrapWeights bootstrap(options_.seed, options_.num_trials);
  // Intra-batch parallelism: one pool shared by all executors. Blocks run
  // serially in topological order; within a block the evaluation phases fan
  // out and the apply phases stay serial, so results are bit-identical for
  // every num_threads (including 0 = no pool).
  pool_.reset();
  if (options_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  executors_.clear();
  for (size_t b = 0; b < plan_.blocks.size(); ++b) {
    executors_.push_back(std::make_unique<BlockExecutor>(
        &plan_, static_cast<int>(b), &annotations_, &options_, registry_.get(),
        bootstrap, consumed[b], feeds_join[b], pool_.get()));
  }
  // Every compiled program went through the verifier seam inside the
  // BlockExecutor constructors; a rejected one already fell back to the
  // interpreter, and the counters (folded into metrics again at the start
  // of each Run) are its trace.
  FoldVerifierStats();
  initialized_ = true;
  return Status::OK();
}

void QueryController::FoldVerifierStats() {
  for (const auto& executor : executors_) {
    const ProgramVerifierStats& stats = executor->verifier_stats();
    metrics_.programs_compiled += stats.compiled;
    metrics_.programs_verified += stats.verified;
    metrics_.programs_rejected += stats.rejected;
    metrics_.compile_refusals += stats.refused;
  }
}

RowBatch QueryController::StreamDelta(int b) const {
  RowBatch delta;
  if (streamed_table_ == nullptr) return delta;
  const auto& ids = layout_.batches[b];
  delta.reserve(ids.size());
  for (uint64_t id : ids) {
    ExecRow row;
    row.values = streamed_table_->row(id);
    row.weight = 1.0;
    row.stream_uid = id;
    delta.push_back(std::move(row));
  }
  return delta;
}

double QueryController::ScaleAt(int b) const {
  if (streamed_table_ == nullptr || seen_rows_[b] == 0) return 1.0;
  return static_cast<double>(streamed_table_->num_rows()) /
         static_cast<double>(seen_rows_[b]);
}

int QueryController::ProcessOneBatch(int b, BlockBatchStats* stats,
                                     bool* injected_only) {
  const RowBatch stream_delta = StreamDelta(b);
  const double scale = ScaleAt(b);
  int rollback = BlockExecutor::kNoRollback;
  bool injected = true;

  for (size_t blk = 0; blk < plan_.blocks.size(); ++blk) {
    const Block& block = plan_.blocks[blk];
    std::vector<RowBatch> deltas(block.inputs.size());
    for (size_t k = 0; k < block.inputs.size(); ++k) {
      const BlockInput& input = block.inputs[k];
      if (input.kind == BlockInput::Kind::kBaseTable) {
        if (input.streamed) {
          deltas[k] = stream_delta;
        } else if (b == 0) {
          auto entry = catalog_->Find(input.table_name);
          // Validated at Init; an entry is always present here.
          const Table& table = *(*entry)->table;
          deltas[k].reserve(table.num_rows());
          for (const Row& r : table.rows()) {
            ExecRow row;
            row.values = r;
            deltas[k].push_back(std::move(row));
          }
        }
      } else if (executors_[blk]->stateless()) {
        // Snapshot consumer: the upstream's output relation of this batch,
        // its live groups (no lapsed ones) with their current values.
        const auto& groups = registry_->LiveGroups(input.source_block, b);
        deltas[k].reserve(groups.size());
        for (const AggregateRegistry::LiveGroup& group : groups) {
          ExecRow row;
          row.values = registry_->OutputRow(input.source_block, group);
          deltas[k].push_back(std::move(row));
        }
      } else {
        deltas[k] = executors_[input.source_block]->new_output_rows();
      }
    }
    const int request =
        executors_[blk]->ProcessBatch(b, scale, std::move(deltas), stats);
    if (request != BlockExecutor::kNoRollback) {
      injected = injected && executors_[blk]->rollback_injected();
      if (rollback == BlockExecutor::kNoRollback || request < rollback) {
        rollback = request;
      }
    }
  }
  if (injected_only != nullptr) {
    *injected_only = rollback != BlockExecutor::kNoRollback && injected;
  }
  return rollback;
}

int QueryController::RollbackTo(int target, int current_batch, bool injected,
                                BatchMetrics* bm) {
  // Failure recovery mutates the registry; it always runs on the driving
  // thread between batches, which the serial-phase role makes checkable.
  ScopedThreadRole serial_phase(engine_serial_phase);
  if (target >= 0) {
    // Walk the ring newest-to-oldest over snapshots at or before the
    // target. A checkpoint whose checksum no longer matches its content is
    // corrupt — replaying it would resurrect bad state as silently as the
    // failure it is meant to undo — so verification failures escalate to
    // the next older candidate (a deeper but sound rollback).
    for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend();) {
      const auto& snapshot = *it;
      if (snapshot.empty() || snapshot[0]->batch > target) {
        ++it;
        continue;
      }
      bool valid = true;
      for (const auto& checkpoint : snapshot) {
        valid = valid && BlockExecutor::VerifyCheckpoint(*checkpoint);
      }
      if (!valid) {
        bm->corrupt_checkpoints++;
        // Prune the corrupt snapshot: it can never be restored, so keeping
        // its payload would only pin dead state in the ring (and a later
        // recovery would stumble over — and re-count — the same corpse).
        it = std::make_reverse_iterator(checkpoints_.erase(std::next(it).base()));
        continue;
      }
      const int restored = snapshot[0]->batch;
      for (size_t blk = 0; blk < executors_.size(); ++blk) {
        executors_[blk]->Restore(*snapshot[blk]);
      }
      const int depth = current_batch - restored;
      // Natural failures freeze recovered ranges through the replay window
      // (livelock prevention); injected ones replay unfrozen — no decision
      // actually went bad, and the unfrozen replay reproduces the
      // fault-free bits exactly (docs/INTERNALS.md §9).
      registry_->RollbackTo(restored, injected ? 0 : depth);
      bm->rollback_depth_max = std::max(bm->rollback_depth_max, depth);
      if (!injected) bm->frozen_replay_batches += depth;
      return restored;
    }
    // Target evicted from the ring, or every candidate corrupt: degrade to
    // a full restart.
  }
  for (auto& executor : executors_) executor->Reset();
  const int depth = current_batch + 1;  // everything from batch 0 replays
  registry_->RollbackTo(-1, injected ? 0 : depth);
  checkpoints_.clear();
  bm->full_restarts++;
  bm->rollback_depth_max = std::max(bm->rollback_depth_max, depth);
  if (!injected) bm->frozen_replay_batches += depth;
  return -1;
}

int QueryController::ApplyDegradation(int attempts, int rollback,
                                      BatchMetrics* bm) {
  const int cap = options_.max_recoveries_per_batch;
  const int widen_at = std::max(1, cap / 4);
  const int no_prune_at = std::max(widen_at + 1, cap / 2);
  if (attempts > cap) {
    // Staircase level 3 (terminal): classification-free processing cannot
    // fail, so a full restart here is guaranteed to terminate the storm.
    degrade_level_ = 3;
    for (auto& executor : executors_) executor->DisableClassification();
    bm->recoveries_exhausted = 1;
    return -1;
  }
  if (attempts > no_prune_at && degrade_level_ < 2) {
    // Level 2: stop making pruning decisions (no new obligations), but
    // keep verifying the ones already registered.
    degrade_level_ = 2;
    for (auto& executor : executors_) executor->DisablePruning();
  } else if (attempts > widen_at && degrade_level_ < 1) {
    // Level 1: widen every envelope. Wider padded envelopes mean fewer
    // future decisions near the edge and fewer obligations to betray —
    // pruning degrades gracefully instead of flapping.
    degrade_level_ = 1;
    ScopedThreadRole serial_phase(engine_serial_phase);
    registry_->ScaleSlack(2.0);
  }
  return rollback;
}

void QueryController::PushCheckpoint(int batch) {
  std::vector<std::shared_ptr<const BlockExecutor::Checkpoint>> snap;
  for (const auto& executor : executors_) {
    snap.push_back(executor->MakeCheckpoint(batch));
  }
  checkpoints_.push_back(std::move(snap));
  if (checkpoints_.size() > options_.checkpoint_history) {
    checkpoints_.pop_front();
  }
}

Status QueryController::Run(const ResultObserver& observer) {
  if (!initialized_) IOLAP_RETURN_IF_ERROR(Init());
  // Fault-injection spec for this run: environment (IOLAP_FAILPOINTS)
  // first, per-query options on top. Disarmed when Run returns; an empty
  // merged spec leaves any externally-installed config untouched.
  ScopedFailpoints scoped_failpoints(MergedFailpointSpec(options_.failpoints));
  IOLAP_RETURN_IF_ERROR(scoped_failpoints.status());
  metrics_ = QueryMetrics{};
  FoldVerifierStats();
  checkpoints_.clear();
  degrade_level_ = 0;

  const int num_batches = static_cast<int>(layout_.batches.size());
  for (int b = 0; b < num_batches; ++b) {
    WallTimer timer;
    CpuTimer cpu_timer;
    BatchMetrics bm;
    bm.batch = b;

    BlockBatchStats stats;
    bool injected = false;
    int rollback = ProcessOneBatch(b, &stats, &injected);

    // Scheduler-level fault: a spurious recovery request against an
    // otherwise clean batch (lost heartbeat, flaky verdict transport).
    // `arg` sets the claimed rollback depth, default 1.
    if (rollback == BlockExecutor::kNoRollback &&
        IOLAP_FAILPOINT(Failpoint::kControllerBatchFault, b)) {
      const int64_t depth = FailpointArg(Failpoint::kControllerBatchFault, 1);
      rollback = static_cast<int>(
          std::max<int64_t>(-1, static_cast<int64_t>(b) - depth));
      injected = true;
    }

    // Failure recovery (§5.1): roll back to the last consistent batch and
    // reprocess forward. A recovery storm degrades down the staircase —
    // wider slack, then no pruning, then classification-free processing,
    // which cannot fail.
    int attempts = 0;
    while (rollback != BlockExecutor::kNoRollback) {
      ++attempts;
      bm.failure_recoveries++;
      if (injected) bm.injected_faults++;
      rollback = ApplyDegradation(attempts, rollback, &bm);
      const int restored = RollbackTo(rollback, b, injected, &bm);
      // Drop checkpoints newer than the restore point.
      while (!checkpoints_.empty() &&
             checkpoints_.back()[0]->batch > restored) {
        checkpoints_.pop_back();
      }
      rollback = BlockExecutor::kNoRollback;
      for (int bb = restored + 1; bb <= b; ++bb) {
        BlockBatchStats replay_stats;
        bool replay_injected = false;
        const int request = ProcessOneBatch(bb, &replay_stats,
                                            &replay_injected);
        bm.recomputed_rows += replay_stats.input_rows;
        bm.recomputed_rows += replay_stats.recomputed_rows;
        bm.shipped_bytes += replay_stats.shipped_bytes;
        // Re-checkpoint replayed batches so a later failure can land on
        // them again.
        if (bb < b) PushCheckpoint(bb);
        if (request != BlockExecutor::kNoRollback) {
          rollback = request;
          injected = replay_injected;
          break;
        }
      }
    }
    bm.degrade_level = degrade_level_;

    PushCheckpoint(b);
    BuildResult(b);

    bm.latency_sec = timer.ElapsedSeconds();
    bm.cpu_sec = cpu_timer.ElapsedSeconds();
    bm.fraction_processed = last_result_.fraction_processed;
    bm.input_rows = stats.input_rows;
    bm.recomputed_rows += stats.recomputed_rows;
    bm.shipped_bytes += stats.shipped_bytes;
    for (const auto& executor : executors_) {
      bm.join_state_bytes += executor->JoinStateBytes();
      bm.other_state_bytes += executor->OtherStateBytes();
    }
    bm.other_state_bytes += registry_->TotalBytes();
    metrics_.batches.push_back(bm);

    if (observer != nullptr && observer(last_result_) == BatchAction::kStop) {
      break;
    }
  }
  return Status::OK();
}

void QueryController::BuildResult(int batch) {
  const Block& top = plan_.top();
  PartialResult result;
  result.batch = batch;
  result.fraction_processed =
      streamed_table_ == nullptr
          ? 1.0
          : static_cast<double>(seen_rows_[batch]) /
                std::max<size_t>(1, streamed_table_->num_rows());

  // This batch's rows with their estimates, unordered: the top block's live
  // registry groups, or its SPJ output.
  Table unsorted(top.output_schema);
  std::vector<std::vector<ErrorEstimate>> estimates;
  if (top.has_aggregate()) {
    for (size_t a = 0; a < top.aggs.size(); ++a) {
      result.estimated_columns.push_back(
          static_cast<int>(top.group_by.size() + a));
    }
    const auto& groups = registry_->LiveGroups(top.id, batch);
    unsorted.Reserve(groups.size());
    estimates.reserve(groups.size());
    for (const AggregateRegistry::LiveGroup& group : groups) {
      unsorted.AddRow(registry_->OutputRow(top.id, group));
      std::vector<ErrorEstimate> row_estimates;
      row_estimates.reserve(top.aggs.size());
      for (int col : result.estimated_columns) {
        row_estimates.push_back(registry_->Estimate(top.id, col, group));
      }
      estimates.push_back(std::move(row_estimates));
    }
  } else {
    unsorted = executors_.back()->CurrentSpjOutput(&estimates);
    for (size_t p = 0; p < top.projections.size(); ++p) {
      if (annotations_.back().output_attr_uncertain[p]) {
        result.estimated_columns.push_back(static_cast<int>(p));
      }
    }
  }
  // One sort fixes the delivered order: the ORDER BY keys (display-only
  // presentation), then every column for a deterministic order matching
  // the reference evaluator, then the row index. An aggregate top's rows
  // start with their unique group key. LIMIT keeps a prefix.
  const std::vector<Presentation::Key>& order_by = plan_.presentation.order_by;
  std::vector<size_t> order(unsorted.num_rows());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Row& ra = unsorted.row(a);
    const Row& rb = unsorted.row(b);
    for (const Presentation::Key& key : order_by) {
      const int c = ra[key.column].Compare(rb[key.column]);
      if (c != 0) return key.descending ? c > 0 : c < 0;
    }
    const size_t n = std::min(ra.size(), rb.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = ra[i].Compare(rb[i]);
      if (c != 0) return c < 0;
    }
    return a < b;
  });
  if (plan_.presentation.limit >= 0 &&
      order.size() > static_cast<size_t>(plan_.presentation.limit)) {
    order.resize(static_cast<size_t>(plan_.presentation.limit));
  }
  // Rows are copied, not moved: an SPJ top's unsorted rows were allocated
  // between per-row scratch that is freed by now, and keeping them alive in
  // the result fragments the heap the next batch allocates from.
  result.rows = Table(top.output_schema);
  result.rows.Reserve(order.size());
  result.estimates.reserve(order.size());
  for (size_t r : order) {
    result.rows.AddRow(unsorted.row(r));
    result.estimates.push_back(std::move(estimates[r]));
  }
  last_result_ = std::move(result);
}

size_t QueryController::PendingCount() const {
  size_t total = 0;
  for (const auto& executor : executors_) total += executor->PendingCount();
  return total;
}

size_t QueryController::CheckpointRingBytes() const {
  // Snapshots share the sketch nodes no batch rewrote between them; each
  // node is retained, and counted, once.
  std::unordered_set<const GroupedAggregateState::GroupCells*> counted;
  size_t total = 0;
  for (const auto& snapshot : checkpoints_) {
    for (const auto& checkpoint : snapshot) {
      total += checkpoint->ByteSize(&counted);
    }
  }
  return total;
}

}  // namespace iolap
