#include "iolap/delta_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <optional>

#include "common/failpoint.h"
#include "common/hash.h"
#include "plan/plan_verifier.h"

namespace iolap {

namespace {

// True if input `k` of `block` can deliver new rows after batch 0.
bool InputGrows(const std::vector<BlockAnnotations>& annotations,
                const Block& block, size_t k) {
  const BlockInput& input = block.inputs[k];
  if (input.kind == BlockInput::Kind::kBaseTable) return input.streamed;
  return annotations[input.source_block].dynamic;
}

// Cluster width of the shuffle/broadcast cost model behind
// BlockBatchStats::shipped_bytes: the paper's 20-worker EC2 cluster.
constexpr uint64_t kVirtualWorkers = 20;

// The closed-form stddev of `fn` over `acc`'s main inputs, before
// multiplicity scaling; -1 when `fn` has no closed form.
double UnscaledAnalyticSd(const AggregateFunction& fn,
                          const TrialAccumulatorSet& acc) {
  if (fn.analytic_stddev == nullptr) return -1.0;
  return fn.analytic_stddev(acc.moment_count(), acc.moment_variance());
}

// An undo record's content checksum, O(record).
uint64_t ChecksumOf(const BlockExecutor::UndoRecord& record) {
  uint64_t h = HashCombine(0, static_cast<uint64_t>(record.batch));
  for (const JoinStep::Watermark& mark : record.join_marks) {
    h = HashCombine(h, mark.input);
    h = HashCombine(h, mark.prefix);
  }
  h = HashCombine(h, record.sink_watermark);
  h = HashCombine(h, record.sink_bytes);
  h = HashCombine(h, record.pending_bytes);
  h = HashCombine(h, record.sketch.num_groups);
  h = HashCombine(h, record.sketch.bytes);
  for (const GroupedAggregateState::PreImage& pre : record.sketch.pre_images) {
    h = HashCombine(h, pre.pos);
    h = HashCombine(h, GroupedAggregateState::CellsHash(*pre.cells));
  }
  h = HashCombine(h, record.fresh_pending);
  for (const auto& [index, row] : record.left_pending) {
    h = HashCombine(h, index);
    h = HashCombine(h, HashRow(row.values));
    h = HashCombine(h, row.stream_uid);
    h = HashCombine(h, std::bit_cast<uint64_t>(row.weight));
  }
  return h;
}

}  // namespace

BlockExecutor::BlockExecutor(const QueryPlan* plan, int block_id,
                             const std::vector<BlockAnnotations>* annotations,
                             const EngineOptions* options,
                             AggregateRegistry* registry,
                             BootstrapWeights bootstrap,
                             bool consumed_downstream, bool feeds_join,
                             ThreadPool* pool)
    : plan_(plan),
      block_(&plan->blocks[block_id]),
      ann_(&(*annotations)[block_id]),
      options_(options),
      registry_(registry),
      pool_(pool),
      bootstrap_(bootstrap),
      consumed_downstream_(consumed_downstream),
      feeds_join_(feeds_join),
      sketch_(&block_->aggs, options->num_trials) {
  for (bool uncertain : ann_->agg_arg_uncertain) {
    any_agg_arg_uncertain_ = any_agg_arg_uncertain_ || uncertain;
  }
  if (block_->has_aggregate()) {
    eval_width_ = block_->group_by.size() + block_->aggs.size();
  }
  stateless_ = block_->inputs.size() == 1 &&
               block_->inputs[0].kind == BlockInput::Kind::kBlockOutput;
  for (size_t k = 1; k < block_->inputs.size(); ++k) {
    join_steps_.emplace_back(block_->inputs[k].prefix_key_cols,
                             block_->inputs[k].input_key_cols,
                             InputGrows(*annotations, *block_, k));
  }

  // Lower this block's expressions into compiled register programs
  // (exec/expr_program) through the verifier seam: CompileVerified returns
  // a program only when the compiler accepts the roots and the static
  // bytecode verifier proves it sound; the plan invariant prover then checks
  // it against this block's fragment. The programs are the block's only row
  // evaluators, so a refusal or rejection leaves the block unrunnable and
  // compile_status() names the rule.
  auto compile = [this](const std::vector<ExprPtr>& roots, ProgramRole role,
                        const char* what) {
    auto prog = CompileVerified(roots, &ann_->spj_lineage, &verifier_stats_);
    if (prog != nullptr) {
      const PlanVerifyResult pv =
          VerifyBlockProgram(*plan_, *block_, *prog, role);
      if (!pv.ok) {
        --verifier_stats_.verified;
        verifier_stats_.RecordRejection("plan-invariant", pv.message);
        prog.reset();
      }
    }
    if (prog == nullptr && compile_status_.ok()) {
      const ProgramVerifierStats& st = verifier_stats_;
      compile_status_ = Status::Internal(
          "block '" + block_->debug_name + "': the " + what + " program " +
          (st.last_rejection.empty()
               ? "was refused by the compiler: " + st.last_refusal
               : "was rejected by a verifier: " + st.last_rejection));
    }
    return prog;
  };
  std::vector<ExprPtr> roots;
  if (block_->filter != nullptr) {
    filter_root_ = 0;
    roots.push_back(block_->filter);
  }
  key_root_base_ = static_cast<int>(roots.size());
  roots.insert(roots.end(), block_->group_by.begin(), block_->group_by.end());
  arg_root_base_ = static_cast<int>(roots.size());
  for (const AggSpec& agg : block_->aggs) roots.push_back(agg.arg);
  if (!roots.empty()) {
    row_program_ = compile(roots, ProgramRole::kRowProgram, "row");
  }
  if (!block_->has_aggregate() && !block_->projections.empty()) {
    proj_program_ =
        compile(block_->projections, ProgramRole::kProjection, "projection");
  }
  if (row_program_ != nullptr) {
    prog_states_.resize(pool_ != nullptr ? pool_->num_lanes() : 1);
    for (ExprProgramState& state : prog_states_) {
      row_program_->InitState(&state);
    }
    // Every trial of a pending row folds its main arguments unless some
    // argument reads an uncertain value, so they must be trial-invariant.
    for (size_t a = 0; a < block_->aggs.size(); ++a) {
      assert(any_agg_arg_uncertain_ ||
             row_program_->root_trial_invariant(
                 static_cast<size_t>(arg_root_base_) + a));
    }
  }
  if (proj_program_ != nullptr) proj_program_->InitState(&proj_state_);
  OpenRecord();

  // A projection that is a column reference with an aggregate lookup as its
  // lineage passes an upstream aggregate cell through: its estimate is the
  // registry's. Only the other uncertain projections run per trial.
  if (!block_->has_aggregate()) {
    pass_through_.assign(block_->projections.size(), nullptr);
    for (size_t p = 0; p < block_->projections.size(); ++p) {
      const Expr& proj = *block_->projections[p];
      if (proj.kind() == Expr::Kind::kColumnRef) {
        const int c = static_cast<const ColumnRefExpr&>(proj).index();
        const ExprPtr& lineage = ann_->spj_lineage[static_cast<size_t>(c)];
        if (lineage != nullptr &&
            lineage->kind() == Expr::Kind::kAggLookup) {
          pass_through_[p] = static_cast<const AggLookupExpr*>(lineage.get());
        }
      }
      per_trial_projections_ =
          per_trial_projections_ ||
          (ann_->output_attr_uncertain[p] && pass_through_[p] == nullptr);
    }
  }
}

RowBatch BlockExecutor::JoinDeltas(std::vector<RowBatch> input_deltas) {
  assert(input_deltas.size() == block_->inputs.size());
  RowBatch current = std::move(input_deltas[0]);
  for (size_t k = 1; k < block_->inputs.size(); ++k) {
    RowBatch next;
    join_steps_[k - 1].ProcessBatch(current, input_deltas[k], &next);
    current = std::move(next);
  }
  return current;
}

void BlockExecutor::RegenerateRow(ExecRow* row) const {
  // Without lineage-based lazy evaluation, bringing a saved tuple up to
  // date means re-deriving it from its sources: re-probing every join it
  // passed through and rebuilding the tuple (§4.3 "generating a new tuple
  // requires going through the entire plan").
  for (const JoinStep& step : join_steps_) {
    volatile size_t probed = step.ProbeCount(*row);
    (void)probed;
  }
  ExecRow rebuilt = *row;  // rematerialization
  *row = std::move(rebuilt);
}

IntervalTruth BlockExecutor::ClassifyUncertainFilter(
    const ExecRow& row, RangeConstraintSink* sink) const {
  // With pruning disabled (recovery-storm staircase level 2), and under
  // conservative §4.1 tagging (also the HDA behaviour), a tuple whose
  // filter reads uncertain values is non-deterministic: nothing is decided,
  // so no new obligations are registered — but range maintenance stays on
  // and existing obligations are still verified (unlike
  // DisableClassification).
  if (!classification_enabled() || pruning_disabled_) {
    return IntervalTruth::kUndecided;
  }
  EvalContext ctx;
  ctx.resolver = registry_;
  ctx.column_lineage = &ann_->spj_lineage;
  // Persistent (non-stateless) blocks act on decided outcomes across
  // batches, so every decided comparison must register the bounds that
  // keep it valid (the constraints the §5.1 integrity check enforces).
  // Stateless consumers re-decide everything next batch and impose no
  // obligations.
  if (!stateless_) ctx.constraint_sink = sink;
  return ClassifyPredicate(*block_->filter, row.values, ctx);
}

void BlockExecutor::AccumulateCertain(double weight, size_t eval_idx,
                                      int batch,
                                      GroupedAggregateState* target) {
  GroupedAggregateState::GroupCells& cells =
      target->GetOrCreate(KeyOf(eval_idx), batch);
  const Value* main_vals = MainValsOf(eval_idx);
  for (size_t a = 0; a < block_->aggs.size(); ++a) {
    cells.aggs[a].AddMainOnly(main_vals[a], weight);
  }
  if (bootstrap_.num_trials() > 0) {
    trial_folds_.push_back(
        {cells.aggs.data(), static_cast<uint32_t>(eval_idx)});
  }
}

void BlockExecutor::EvaluateRow(ExecRow* row, bool charge_regeneration,
                                RowEval* ev, Value* vals, double* trial_w,
                                TrialArg* trial_args,
                                ExprProgramState* ps) const {
  if (charge_regeneration && !lazy_enabled()) RegenerateRow(row);

  // Classification with a buffered constraint sink: registrations are
  // replayed by the serial apply phase (see ConstraintOp). This is the same
  // code path in inline mode, so the engine behaves identically with and
  // without a pool.
  struct BufferedSink final : RangeConstraintSink {
    std::vector<ConstraintOp>* ops;
    void RequireUpper(int block, int col, const Row& key,
                      double bound) override {
      ops->push_back({ConstraintOp::Kind::kUpper, block, col, key, bound});
    }
    void RequireLower(int block, int col, const Row& key,
                      double bound) override {
      ops->push_back({ConstraintOp::Kind::kLower, block, col, key, bound});
    }
    void RequireContainment(int block, int col, const Row& key) override {
      ops->push_back({ConstraintOp::Kind::kContainment, block, col, key});
    }
  };
  BufferedSink sink;
  // The clear makes re-evaluation exactly idempotent (the pool-task-fault
  // retry path): a fresh RowEval's vector is already empty, but a retried
  // one holds the doomed attempt's registrations.
  ev->constraints.clear();
  sink.ops = &ev->constraints;
  // An uncertain filter is classified against variation ranges; a
  // deterministic one is decided by the program's main pass below.
  const bool program_decides =
      block_->filter != nullptr && !ann_->filter_uncertain;
  ev->truth = block_->filter != nullptr && ann_->filter_uncertain
                  ? ClassifyUncertainFilter(*row, &sink)
                  : IntervalTruth::kAlwaysTrue;
  if (ev->truth == IntervalTruth::kAlwaysFalse) return;

  // Non-deterministic path: undecided rows, and an aggregate block's rows
  // whose arguments read uncertain values (permanently unsketchable). A
  // program-decided row takes this route only if its filter passes.
  const bool agg = block_->has_aggregate();
  ev->pending_route = ev->truth == IntervalTruth::kUndecided ||
                      (agg && any_agg_arg_uncertain_);
  ev->main_pass = true;
  // A non-aggregate block reads only a filter's main pass, and only when
  // classification did not decide it.
  if (row_program_ == nullptr ||
      (!agg && !program_decides && !ev->pending_route)) {
    return;
  }

  // Prologue: trial-invariant subexpressions plus one resolver probe per
  // aggregate-lookup site, which fetches the trial replicas only for an
  // aggregate block's pending row; then the main (trial = -1) pass. These
  // read only the row and the registry (frozen during a batch), never the
  // sketch, so they run concurrently per row; the contributions are applied
  // serially later.
  const int trials = bootstrap_.num_trials();
  row_program_->Bind(ps, row->values, registry_,
                     agg && ev->pending_route ? trials : 0);
  row_program_->EvalTrial(ps, row->values, -1);
  ev->main_pass =
      filter_root_ < 0 || row_program_->RootTruthy(*ps, filter_root_);
  if (program_decides) {
    ev->truth = ev->main_pass ? IntervalTruth::kAlwaysTrue
                              : IntervalTruth::kAlwaysFalse;
    if (!ev->main_pass) {
      ev->pending_route = false;
      return;
    }
  }
  if (!agg) return;
  const size_t num_keys = block_->group_by.size();
  for (size_t k = 0; k < num_keys; ++k) {
    vals[k] = row_program_->RootValue(
        *ps, static_cast<size_t>(key_root_base_) + k);
  }
  ev->key_hash = HashValues(vals, num_keys);
  // The main arguments, which a pending row's trials fold too, so they
  // are written even when its main filter fails.
  const size_t num_aggs = block_->aggs.size();
  for (size_t a = 0; a < num_aggs; ++a) {
    vals[num_keys + a] = row_program_->RootValue(
        *ps, static_cast<size_t>(arg_root_base_) + a);
  }
  if (trials == 0) return;
  // The row's multiplicity per bootstrap trial (§7: one multiplicity
  // column per trial): a streamed row's Poisson weight in that resample
  // times its plain weight, any other row's plain weight.
  assert(trial_w != nullptr);
  if (row->FromStream()) {
    for (int t = 0; t < trials; ++t) {
      trial_w[t] = row->weight * bootstrap_.WeightAt(row->stream_uid, t);
    }
  } else {
    std::fill_n(trial_w, trials, row->weight);
  }
  if (!ev->pending_route) return;
  // Per-trial membership: the decision the filter takes under each
  // bootstrap resample, using the trial replicas of the aggregates it
  // reads. This is what makes the error estimate honest for tuples whose
  // membership is itself uncertain. EvalTrials zeroes the trials whose
  // filter decision fails under that resample and, where the arguments
  // read uncertain values, fills the surviving trials' arguments (the
  // flush reads a trial's arguments only where its weight is nonzero).
  assert(any_agg_arg_uncertain_ == (trial_args != nullptr));
  ev->any_trial =
      row_program_->EvalTrials(ps, row->values, trials, filter_root_,
                               arg_root_base_, num_aggs, trial_w, trial_args);
}

void BlockExecutor::ApplyPending(const ExecRow& row, size_t eval_idx,
                                 int batch, GroupedAggregateState* temp) {
  const RowEval& ev = row_scratch_[eval_idx];
  const HashedRowRef key = KeyOf(eval_idx);
  GroupedAggregateState::GroupCells* cells = nullptr;
  if (ev.main_pass) {
    cells = &temp->GetOrCreate(key, batch);
    const Value* main_vals = MainValsOf(eval_idx);
    for (size_t a = 0; a < block_->aggs.size(); ++a) {
      cells->aggs[a].AddMainOnly(main_vals[a], row.weight);
    }
  }
  if (!ev.any_trial) return;
  if (cells == nullptr) {
    // Trial-only pass: contribute only when the group's existence is
    // already established by a main-evaluation contribution (sketch or
    // another pending row). A group passing only in resamples must not
    // materialize in the output — Q(D_i) is defined by the main
    // evaluation (ghost groups would violate Theorem 1); its trial
    // replicas are folded only where the group exists. The check is
    // loop-invariant across this row's trials (nothing mutates the maps
    // between them), so one check covers all surviving trials.
    if (sketch_.Find(key) == nullptr && temp->Find(key) == nullptr) return;
    cells = &temp->GetOrCreate(key, batch);
  }
  trial_folds_.push_back(
      {cells->aggs.data(), static_cast<uint32_t>(eval_idx)});
}

void BlockExecutor::FlushDeferredTrials() {
  if (trial_folds_.empty()) return;
  const size_t trials = static_cast<size_t>(bootstrap_.num_trials());
  const size_t num_aggs = block_->aggs.size();
  const auto flush_range = [&](size_t begin, size_t end, size_t /*lane*/) {
    // Certain rows fold into the sketch and pending rows into the batch
    // scratch, one record per row in serial-apply order, so every
    // (accumulator, trial) receives its adds in row order.
    std::vector<TrialWeight> scratch(end - begin);
    for (const TrialFold& fold : trial_folds_) {
      const size_t i = fold.eval_idx;
      assert((i + 1) * trials <= trial_w_.size());
      FoldRowTrials(fold.accs, num_aggs, MainValsOf(i),
                    any_agg_arg_uncertain_
                        ? trial_args_.data() + i * trials * num_aggs
                        : nullptr,
                    trial_w_.data() + i * trials, static_cast<int>(begin),
                    static_cast<int>(end), scratch.data());
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelRanges(trials, flush_range);
  } else {
    flush_range(0, trials, 0);
  }
  trial_folds_.clear();
}

void BlockExecutor::RouteRow(ExecRow row, size_t eval_idx, size_t old_index,
                             int batch, GroupedAggregateState* temp,
                             std::vector<ExecRow>* new_pending) {
  const RowEval& ev = row_scratch_[eval_idx];
  const bool fresh = old_index == kFreshRow;
  if (ev.truth != IntervalTruth::kAlwaysFalse && ev.pending_route) {
    // Non-deterministic (or permanently unsketchable): contributes revocably
    // this batch and is saved for re-evaluation in the next one.
    if (block_->has_aggregate()) {
      ApplyPending(row, eval_idx, batch, temp);
    } else if (ev.main_pass) {
      pending_passing_.push_back(new_pending->size());
    }
    if (fresh) {
      ++open_.fresh_pending;
      pending_bytes_ += row.ByteSize();
    }
    if (stateless_) pending_slots_.push_back(feed_slots_[eval_idx]);
    new_pending->push_back(std::move(row));
    return;
  }
  if (ev.truth != IntervalTruth::kAlwaysFalse) {
    if (block_->has_aggregate()) {
      AccumulateCertain(row.weight, eval_idx, batch, &sketch_);
    } else {
      sink_bytes_ += row.ByteSize();
      if (stateless_) sink_slots_.push_back(feed_slots_[eval_idx]);
      if (fresh) {
        sink_rows_.push_back(std::move(row));
        return;
      }
      sink_rows_.push_back(row);
    }
  }
  if (fresh) return;
  // A row of the old U left it: the open record keeps it for an undo.
  pending_bytes_ -= row.ByteSize();
  open_.left_pending.emplace_back(old_index, std::move(row));
}

int BlockExecutor::ProcessBatch(int batch, double scale,
                                std::vector<RowBatch> input_deltas,
                                BlockBatchStats* stats,
                                BlockPhaseTimes* phases) {
  // One clock read per phase boundary; a lap adds the time since the last
  // one to its phase.
  using Clock = std::chrono::steady_clock;
  BlockPhaseTimes unused;
  BlockPhaseTimes& times = phases != nullptr ? *phases : unused;
  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](double* phase) {
    const Clock::time_point now = Clock::now();
    *phase += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };
  if (stateless_) {
    // Snapshot consumer: the controller passes the upstream's full output
    // relation; re-evaluate it from scratch (it is small — aggregate
    // results) and keep no cross-batch state. Its rows are the upstream's
    // live groups in order, so their slots are the live list.
    sketch_.Clear();
    sink_rows_.clear();
    sink_slots_.clear();
    sink_bytes_ = 0;
    pending_.clear();
    pending_slots_.clear();
    pending_bytes_ = 0;
    feed_slots_ = registry_->LiveGroups(block_->inputs[0].source_block, batch);
    assert(feed_slots_.size() == input_deltas[0].size());
    stats->recomputed_rows += input_deltas[0].size();
  } else {
    for (const RowBatch& delta : input_deltas) {
      stats->input_rows += delta.size();
    }
  }

  RowBatch fresh = JoinDeltas(std::move(input_deltas));
  // Shuffle cost model: this batch's fresh rows, plus the bootstrap
  // multiplicities each streamed row carries.
  stats->shipped_bytes += BatchByteSize(fresh);
  for (const ExecRow& row : fresh) {
    if (row.FromStream()) {
      stats->shipped_bytes += bootstrap_.RowOverheadBytes();
    }
  }

  GroupedAggregateState temp(&block_->aggs, options_->num_trials);
  pending_passing_.clear();
  new_output_rows_.clear();
  std::vector<ExecRow> new_pending;
  lap(&times.join_sec);

  // Re-evaluate the saved non-deterministic set (§5.1: delta update based
  // on U_{i-1} and ΔD_i).
  stats->recomputed_rows += pending_.size();
  if (!lazy_enabled()) {
    // Without OPT2 the saved tuples are re-shipped / re-derived.
    stats->shipped_bytes += pending_bytes_;
  }

  // Evaluation phase over fresh ∪ pending rows: classify (with buffered
  // constraints), every routed row's key, arguments and trial weights, and
  // the per-trial re-evaluations of rows bound for the non-deterministic
  // path.
  // Evaluations read only the row and the registry — which is frozen until
  // the apply phase replays constraints and PublishOutput republishes — so
  // rows are independent and the pass parallelizes without changing any
  // outcome.
  const size_t num_fresh = fresh.size();
  const size_t total_rows = num_fresh + pending_.size();
  row_scratch_.clear();
  row_scratch_.resize(total_rows);
  row_vals_.assign(total_rows * eval_width_, Value());
  // An aggregate block's rows get their weights per trial; only a block
  // whose arguments read uncertain values keeps arguments per trial.
  const size_t row_trials = block_->has_aggregate()
                                ? static_cast<size_t>(bootstrap_.num_trials())
                                : 0;
  const size_t row_args =
      any_agg_arg_uncertain_ ? row_trials * block_->aggs.size() : 0;
  if (trial_w_.size() < total_rows * row_trials) {
    trial_w_.resize(total_rows * row_trials);
  }
  if (trial_args_.size() < total_rows * row_args) {
    trial_args_.resize(total_rows * row_args);
  }

  // Lane k evaluates its slice of the fresh rows and its slice of U
  // (EvaluationSlices), so the rows that run per trial spread over every
  // lane. ParallelRanges is handed the lane count, so each of its ranges
  // is one lane.
  const size_t lanes =
      pool_ != nullptr ? std::min(total_rows, pool_->num_lanes()) : 1;
  const auto evaluate = [&]([[maybe_unused]] size_t begin_lane,
                            [[maybe_unused]] size_t end_lane, size_t lane) {
    assert(begin_lane == lane && end_lane == lane + 1);
    // Each lane owns one program scratch state; inline execution is lane 0.
    ExprProgramState* prog_state =
        row_program_ != nullptr ? &prog_states_[lane] : nullptr;
    for (const auto& [begin, end] :
         EvaluationSlices(num_fresh, pending_.size(), lanes, lane)) {
      assert(begin <= end && end <= total_rows);
      for (size_t i = begin; i < end; ++i) {
        ExecRow& row = i < num_fresh ? fresh[i] : pending_[i - num_fresh];
        if (stateless_) {
          AggregateRegistry::PrimeLookupHint(block_->inputs[0].source_block,
                                             feed_slots_[i]);
        }
        EvaluateRow(&row, /*charge_regeneration=*/i >= num_fresh,
                    &row_scratch_[i], row_vals_.data() + i * eval_width_,
                    trial_w_.data() + i * row_trials,
                    row_args > 0 ? trial_args_.data() + i * row_args
                                 : nullptr,
                    prog_state);
      }
    }
  };
  if (pool_ != nullptr) {
    // Pure evaluation into disjoint scratch slots: re-running a lane after
    // a simulated worker crash overwrites the same slots, so the phase is
    // idempotent and participates in pool-task fault injection.
    pool_->ParallelRanges(lanes, evaluate, /*idempotent=*/true);
  } else {
    evaluate(0, 1, 0);
  }
  lap(&times.evaluate_sec);

  // Apply phase, serial in the original row order: replay the buffered
  // range constraints, then route each row into the sketch / sink /
  // non-deterministic set. Entering the serial-phase role here (a no-op at
  // runtime) is what lets Clang verify that none of the mutation below is
  // reachable from the parallel evaluation lambdas above.
  ScopedThreadRole serial_phase(engine_serial_phase);
  for (size_t i = 0; i < total_rows; ++i) {
    for (const ConstraintOp& op : row_scratch_[i].constraints) {
      switch (op.kind) {
        case ConstraintOp::Kind::kUpper:
          registry_->RequireUpper(op.block, op.col, op.key, op.bound);
          break;
        case ConstraintOp::Kind::kLower:
          registry_->RequireLower(op.block, op.col, op.key, op.bound);
          break;
        case ConstraintOp::Kind::kContainment:
          registry_->RequireContainment(op.block, op.col, op.key);
          break;
      }
    }
    if (i < num_fresh) {
      RouteRow(std::move(fresh[i]), i, kFreshRow, batch, &temp, &new_pending);
    } else {
      RouteRow(std::move(pending_[i - num_fresh]), i, i - num_fresh, batch,
               &temp, &new_pending);
    }
  }
  pending_ = std::move(new_pending);
  lap(&times.apply_sec);

  // Drain the deferred trial folds (trial-partitioned) before publication
  // reads the accumulators. The flush is the rows' scratch's last reader
  // (it folds the main arguments in row_vals_); the scratch is freed here
  // so that the publication's time is its walk alone.
  FlushDeferredTrials();
  row_scratch_.clear();
  row_vals_.clear();
  lap(&times.flush_sec);

  const int rollback = PublishOutput(batch, scale, temp, stats);
  lap(&times.publish_sec);
  return rollback;
}

int BlockExecutor::PublishOutput(int batch, double scale,
                                 const GroupedAggregateState& temp,
                                 BlockBatchStats* stats) {
  rollback_injected_ = false;
  if (!block_->has_aggregate()) return kNoRollback;

  // Aggregates directly over the streamed relation scale their magnitude
  // results by m_i (§2 query semantics); aggregates over the outputs of
  // other blocks see already-scaled estimates on a per-seen-group basis.
  bool scans_stream = false;
  for (const BlockInput& input : block_->inputs) {
    scans_stream = scans_stream || (input.kind == BlockInput::Kind::kBaseTable &&
                                    input.streamed);
  }
  const double effective_scale = scans_stream ? scale : 1.0;
  registry_->SetBlockScale(block_->id, effective_scale);

  // Ranges are maintained only when classification consumes them; under
  // HDA / conservative tagging (and after a recovery-storm fallback) every
  // suspect tuple is re-evaluated each batch anyway, so integrity failures
  // would be pure overhead.
  const bool track = consumed_downstream_ && classification_enabled();

  int rollback = kNoRollback;
  // AND-reduced over every failure this batch: the recovery counts as
  // injected only when *no* real constraint violation contributed.
  bool injected_only = true;
  auto note_result = [&](const AggregateRegistry::PublishResult& result) {
    if (!result.ok) {
      injected_only = injected_only && result.injected;
      if (rollback == kNoRollback || result.rollback_to < rollback) {
        rollback = result.rollback_to;
      }
    }
  };

  const bool analytic = options_->error_method == ErrorMethod::kAnalytic;
  const size_t num_aggs = block_->aggs.size();
  const size_t trials = static_cast<size_t>(bootstrap_.num_trials());
  publish_main_.resize(num_aggs);
  publish_trials_.resize(num_aggs * trials);
  publish_sd_.resize(analytic ? num_aggs : 0);

  // One serial walk in a fixed order (sketch groups, then scratch-only
  // groups): integrity checks, registry publication (and with it the
  // batch's live groups) and the join feed all follow it. A dirty group is
  // materialized from its accumulator cells, merging the sketch and scratch
  // cells when it has both, and published; publish returns its slot.
  auto publish = [&](const Row& key,
                     const GroupedAggregateState::GroupCells* sketch_cells,
                     const GroupedAggregateState::GroupCells* temp_cells) {
    engine_serial_phase.AssertHeld();  // called only from the walk below
    for (size_t a = 0; a < num_aggs; ++a) {
      std::optional<TrialAccumulatorSet> merged;
      const TrialAccumulatorSet* acc = sketch_cells != nullptr
                                           ? &sketch_cells->aggs[a]
                                           : &temp_cells->aggs[a];
      if (sketch_cells != nullptr && temp_cells != nullptr) {
        merged.emplace(sketch_cells->aggs[a].Clone());
        merged->Merge(temp_cells->aggs[a]);
        acc = &*merged;
      }
      publish_main_[a] = acc->MainResult(1.0);
      acc->TrialResults(1.0, publish_trials_.data() + a * trials);
      if (analytic) {
        publish_sd_[a] = UnscaledAnalyticSd(*block_->aggs[a].fn, *acc);
      }
    }
    const auto result = registry_->Publish(
        block_->id, key, batch, publish_main_.data(), publish_trials_.data(),
        track, analytic ? publish_sd_.data() : nullptr);
    note_result(result);
    // Emit the group downstream the first time it appears, scaled to m_i.
    if (feeds_join_ && result.created) {
      ExecRow out;
      out.values = registry_->OutputRow(block_->id, result.slot);
      new_output_rows_.push_back(std::move(out));
    }
    return result.slot;
  };
  published_.resize(sketch_.num_groups());
  for (size_t pos = 0; pos < sketch_.num_groups(); ++pos) {
    const GroupedAggregateState::Group& g = sketch_.groups()[pos];
    const GroupedAggregateState::GroupCells* temp_cells = temp.Find(g.ref());
    PublishedGroup& pub = published_[pos];
    const bool dirty = force_full_publish_ || temp_cells != nullptr ||
                       g.cells->last_touched == batch ||
                       pub.scratch_stamp == batch - 1;
    if (temp_cells != nullptr) pub.scratch_stamp = batch;
    if (dirty) {
      pub.slot = publish(g.key, g.cells.get(), temp_cells);
    } else {
      // Untouched group: integrity-refresh the stored envelope under the
      // new scale. Nothing wrote its sketch cells since it was last
      // published, so they hold exactly the published results, and that
      // publication's slot still holds its key: every undo clears
      // published_ and forces a full publication.
      assert(pub.slot >= 0 &&
             RowEq()(registry_->GroupKey(block_->id, pub.slot), g.key));
      note_result(registry_->Refresh(block_->id, pub.slot, batch, track));
    }
  }
  for (const GroupedAggregateState::Group& g : temp.groups()) {
    if (sketch_.Find(g.ref()) == nullptr) {
      publish(g.key, nullptr, g.cells.get());
    }
  }
  force_full_publish_ = false;

  // Spurious integrity verdict (fault injection): report a failure even
  // though every check passed. Only meaningful while classification is
  // live — with track off a natural verdict is impossible too — and only
  // when no real failure already requested a (deeper) recovery. The `arg`
  // option sets the claimed rollback depth (default 1 batch).
  if (track && rollback == kNoRollback &&
      IOLAP_FAILPOINT(Failpoint::kExecIntegrityVerdict, batch)) {
    const int64_t depth = FailpointArg(Failpoint::kExecIntegrityVerdict, 1);
    rollback = static_cast<int>(
        std::max<int64_t>(-1, static_cast<int64_t>(batch) - depth));
  }
  rollback_injected_ = rollback != kNoRollback && injected_only;

  // Broadcast of the refreshed aggregate relation (the §6.2 broadcast
  // join that lazy evaluation relies on) to every other virtual worker.
  if (consumed_downstream_) {
    stats->shipped_bytes +=
        registry_->RelationBytes(block_->id) * (kVirtualWorkers - 1);
  }
  return rollback;
}

Table BlockExecutor::CurrentSpjOutput(
    std::vector<std::vector<ErrorEstimate>>* estimates) const {
  Table out(block_->output_schema);
  const size_t num_proj = block_->projections.size();
  // Trials run only for uncertain projections that compute a value; a
  // pass-through column's estimate is its registry cell's. In analytic mode
  // there are no trials, so a computed column reports a zero-width band.
  const int trials = per_trial_projections_ ? bootstrap_.num_trials() : 0;
  EvalContext key_ctx;
  key_ctx.resolver = registry_;
  // The current row's per-projection replicas, reused across rows.
  std::vector<std::vector<double>> replicas(num_proj);
  // One Bind (with its batched aggregate probes) covers the main pass and
  // every per-trial re-evaluation of the row. The program reads every
  // uncertain column through its lineage, so a row kept since an earlier
  // batch needs no refresh.
  // A snapshot consumer's row reads its own group through the slot it was
  // fed from (`feed_slot`, -1 elsewhere).
  auto emit = [&](const ExecRow& row, int feed_slot) {
    if (feed_slot >= 0) {
      AggregateRegistry::PrimeLookupHint(block_->inputs[0].source_block,
                                         feed_slot);
    }
    Row projected;
    projected.reserve(num_proj);
    if (proj_program_ != nullptr) {
      proj_program_->Bind(&proj_state_, row.values, registry_, trials);
      proj_program_->EvalTrial(&proj_state_, row.values, -1);
      for (size_t p = 0; p < num_proj; ++p) {
        projected.push_back(proj_program_->RootValue(proj_state_, p));
      }
    }
    for (std::vector<double>& r : replicas) r.clear();
    for (int t = 0; t < trials; ++t) {
      proj_program_->EvalTrial(&proj_state_, row.values, t);
      for (size_t p = 0; p < num_proj; ++p) {
        if (!ann_->output_attr_uncertain[p] || pass_through_[p] != nullptr) {
          continue;
        }
        const Value v = proj_program_->RootValue(proj_state_, p);
        replicas[p].push_back(v.is_null() ? projected[p].AsDouble()
                                          : v.AsDouble());
      }
    }
    std::vector<ErrorEstimate> row_estimates;
    for (size_t p = 0; p < num_proj; ++p) {
      if (!ann_->output_attr_uncertain[p]) continue;
      if (const AggLookupExpr* cell = pass_through_[p]) {
        row_estimates.push_back(
            registry_->Estimate(cell->block_id(), cell->agg_col(),
                                cell->EvalKey(row.values, key_ctx)));
      } else {
        const Value& v = projected[p];
        row_estimates.push_back(
            EstimateError(v.is_null() ? 0.0 : v.AsDouble(), replicas[p]));
      }
    }
    estimates->push_back(std::move(row_estimates));
    out.AddRow(std::move(projected));
  };
  for (size_t i = 0; i < sink_rows_.size(); ++i) {
    emit(sink_rows_[i], stateless_ ? sink_slots_[i] : -1);
  }
  for (size_t i : pending_passing_) {
    emit(pending_[i], stateless_ ? pending_slots_[i] : -1);
  }
  return out;
}

size_t BlockExecutor::JoinStateBytes() const {
  size_t total = 0;
  for (const JoinStep& step : join_steps_) total += step.StateBytes();
  return total;
}

size_t BlockExecutor::OtherStateBytes() const {
  return sketch_.ByteSize() + pending_bytes_ + sink_bytes_;
}

std::vector<JoinStep::Watermark> BlockExecutor::JoinWatermarks() const {
  std::vector<JoinStep::Watermark> marks;
  marks.reserve(join_steps_.size());
  for (const JoinStep& step : join_steps_) marks.push_back(step.watermark());
  return marks;
}

void BlockExecutor::OpenRecord() {
  open_ = UndoRecord{};
  open_.join_marks = JoinWatermarks();
  open_.sink_watermark = sink_rows_.size();
  open_.sink_bytes = sink_bytes_;
  open_.pending_bytes = pending_bytes_;
}

BlockExecutor::UndoRecord BlockExecutor::SealRecord(int batch) {
  UndoRecord record = std::move(open_);
  record.batch = batch;
  record.sketch = sketch_.Seal();
  record.bytes = sizeof(UndoRecord) +
                 record.join_marks.size() * sizeof(JoinStep::Watermark) +
                 record.sketch.pre_images.size() *
                     sizeof(GroupedAggregateState::PreImage) +
                 record.sketch.pre_image_bytes;
  for (const auto& [index, row] : record.left_pending) {
    record.bytes += sizeof(index) + row.ByteSize();
  }
  record.checksum = ChecksumOf(record);
  if (IOLAP_FAILPOINT(Failpoint::kCheckpointCaptureCorrupt, batch)) {
    record.checksum ^= 1;  // simulated bit-rot between capture and restore
  }
  OpenRecord();
  return record;
}

bool BlockExecutor::VerifyRecord(const UndoRecord& record) {
  if (IOLAP_FAILPOINT(Failpoint::kCheckpointRestoreFault, record.batch)) {
    return false;  // simulated corruption detected at restore time
  }
  return ChecksumOf(record) == record.checksum;
}

void BlockExecutor::UndoOpenBatch() {
  UndoRecord record = std::move(open_);
  record.sketch = sketch_.Seal();
  Undo(std::move(record));
}

void BlockExecutor::Undo(UndoRecord record) {
  for (size_t k = 0; k < join_steps_.size(); ++k) {
    join_steps_[k].TruncateTo(record.join_marks[k]);
  }
  if (stateless_) {
    // A snapshot consumer rebuilds everything from its input next batch.
    sketch_.Clear();
    pending_.clear();
    pending_slots_.clear();
    sink_rows_.clear();
    sink_slots_.clear();
    pending_bytes_ = 0;
    sink_bytes_ = 0;
  } else {
    sketch_.Rollback(std::move(record.sketch));
    // Drop the rows that entered U and merge the rows that left back in at
    // their old indices; the rows that stayed kept their relative order.
    std::vector<ExecRow> old;
    old.reserve(pending_.size() - record.fresh_pending +
                record.left_pending.size());
    auto stayed =
        pending_.begin() + static_cast<ptrdiff_t>(record.fresh_pending);
    for (auto& [index, row] : record.left_pending) {
      while (old.size() < index) old.push_back(std::move(*stayed++));
      old.push_back(std::move(row));
    }
    old.insert(old.end(), std::make_move_iterator(stayed),
               std::make_move_iterator(pending_.end()));
    pending_ = std::move(old);
    pending_bytes_ = record.pending_bytes;
    sink_rows_.resize(record.sink_watermark);
    sink_bytes_ = record.sink_bytes;
  }
  new_output_rows_.clear();
  pending_passing_.clear();
  published_.clear();
  // Registry values may be newer than the restored sketches.
  force_full_publish_ = true;
  OpenRecord();
}

void BlockExecutor::Reset() {
  for (JoinStep& step : join_steps_) {
    step.TruncateTo(JoinStep::Watermark{0, 0});
  }
  pending_.clear();
  pending_slots_.clear();
  pending_bytes_ = 0;
  sketch_.Clear();
  sink_rows_.clear();
  sink_slots_.clear();
  sink_bytes_ = 0;
  new_output_rows_.clear();
  pending_passing_.clear();
  published_.clear();
  force_full_publish_ = true;
  OpenRecord();
}

}  // namespace iolap
