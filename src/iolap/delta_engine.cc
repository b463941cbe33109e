#include "iolap/delta_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>

#include "common/failpoint.h"
#include "common/hash.h"
#include "plan/plan_verifier.h"

namespace iolap {

namespace {

// True if input `k` of `block` can deliver new rows after batch 0.
bool InputGrows(const QueryPlan& /*plan*/,
                const std::vector<BlockAnnotations>& annotations,
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
  stateless_ = block_->inputs.size() == 1 &&
               block_->inputs[0].kind == BlockInput::Kind::kBlockOutput;
  for (size_t k = 1; k < block_->inputs.size(); ++k) {
    bool prefix_grows = false;
    for (size_t j = 0; j < k; ++j) {
      prefix_grows = prefix_grows || InputGrows(*plan, *annotations, *block_, j);
    }
    join_steps_.emplace_back(block_->inputs[k].prefix_key_cols,
                             block_->inputs[k].input_key_cols,
                             InputGrows(*plan, *annotations, *block_, k),
                             prefix_grows);
  }

  // Lower this block's hot expressions into compiled register programs
  // (exec/expr_program) through the verifier seam: CompileVerified refuses
  // both what the compiler cannot prove bit-identical and what the static
  // bytecode verifier rejects; the plan invariant prover then checks the
  // accepted program against this block's fragment. Any refusal keeps the
  // interpreter for the block.
  if (options->compile_expressions) {
    auto drop_if_plan_mismatch = [this](
                                     std::unique_ptr<const ExprProgram>* prog,
                                     ProgramRole role) {
      if (*prog == nullptr) return;
      const PlanVerifyResult pv =
          VerifyBlockProgram(*plan_, *block_, **prog, role);
      if (!pv.ok) {
        --verifier_stats_.verified;
        verifier_stats_.RecordRejection("plan-invariant", pv.message);
        prog->reset();
      }
    };
    std::vector<ExprPtr> roots;
    if (block_->filter != nullptr) {
      filter_root_ = 0;
      roots.push_back(block_->filter);
    }
    arg_root_base_ = static_cast<int>(roots.size());
    for (const AggSpec& agg : block_->aggs) roots.push_back(agg.arg);
    if (!roots.empty()) {
      row_program_ =
          CompileVerified(roots, &ann_->spj_lineage, &verifier_stats_);
      drop_if_plan_mismatch(&row_program_, ProgramRole::kRowProgram);
    }
    if (!block_->has_aggregate() && !block_->projections.empty()) {
      proj_program_ = CompileVerified(block_->projections,
                                      &ann_->spj_lineage, &verifier_stats_);
      drop_if_plan_mismatch(&proj_program_, ProgramRole::kProjection);
    }
  }
  if (row_program_ != nullptr) {
    prog_states_.resize(pool_ != nullptr ? pool_->num_lanes() : 1);
    for (ExprProgramState& state : prog_states_) {
      row_program_->InitState(&state);
    }
  }
  if (proj_program_ != nullptr) proj_program_->InitState(&proj_state_);

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

EvalContext BlockExecutor::MainContext() const {
  EvalContext ctx;
  ctx.resolver = registry_;
  ctx.column_lineage = &ann_->spj_lineage;
  ctx.trial = -1;
  return ctx;
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

void BlockExecutor::RefreshRow(ExecRow* row, bool charge_regeneration) const {
  if (charge_regeneration && !lazy_enabled()) {
    // Without lineage-based lazy evaluation, bringing a saved tuple up to
    // date means re-deriving it from its sources: re-probing every join it
    // passed through and rebuilding the tuple (§4.3 "generating a new tuple
    // requires going through the entire plan").
    for (const JoinStep& step : join_steps_) {
      Row key;
      key.reserve(step.prefix_key_cols().size());
      for (int c : step.prefix_key_cols()) key.push_back(row->values[c]);
      volatile size_t probed = step.ProbeCount(key);
      (void)probed;
    }
    ExecRow rebuilt = *row;  // rematerialization
    *row = std::move(rebuilt);
  }
  if (!ann_->spj_attr_uncertain.empty()) {
    const EvalContext ctx = MainContext();
    for (size_t c = 0; c < ann_->spj_lineage.size(); ++c) {
      const ExprPtr& lineage = ann_->spj_lineage[c];
      if (lineage != nullptr) {
        row->values[c] = lineage->Eval(row->values, ctx);
      }
    }
  }
}

IntervalTruth BlockExecutor::Classify(const ExecRow& row,
                                      RangeConstraintSink* sink) const {
  if (block_->filter == nullptr) return IntervalTruth::kAlwaysTrue;
  EvalContext ctx = MainContext();
  // With pruning disabled (recovery-storm staircase level 2) fall through
  // to conservative tagging: nothing is decided, so no new obligations are
  // registered — but range maintenance stays on and existing obligations
  // are still verified (unlike DisableClassification).
  if (classification_enabled() && !pruning_disabled_) {
    // Persistent (non-stateless) blocks act on decided outcomes across
    // batches, so every decided comparison must register the bounds that
    // keep it valid (the constraints the §5.1 integrity check enforces).
    // Stateless consumers re-decide everything next batch and impose no
    // obligations.
    if (!stateless_) ctx.constraint_sink = sink;
    return ClassifyPredicate(*block_->filter, row.values, ctx);
  }
  // Conservative §4.1 tagging (also the HDA behaviour): any tuple whose
  // filter reads uncertain values is non-deterministic; purely
  // deterministic filters evaluate normally.
  if (!ann_->filter_uncertain) {
    return block_->filter->Eval(row.values, ctx).IsTruthy()
               ? IntervalTruth::kAlwaysTrue
               : IntervalTruth::kAlwaysFalse;
  }
  return IntervalTruth::kUndecided;
}

Row BlockExecutor::GroupKeyOf(const ExecRow& row) const {
  const EvalContext ctx = MainContext();
  Row key;
  key.reserve(block_->group_by.size());
  for (const ExprPtr& g : block_->group_by) {
    key.push_back(g->Eval(row.values, ctx));
  }
  return key;
}

void BlockExecutor::AccumulateCertain(const ExecRow& row, int batch,
                                      GroupedAggregateState* target) {
  const EvalContext ctx = MainContext();
  GroupedAggregateState::GroupCells& cells =
      target->GetOrCreate(GroupKeyOf(row), batch);
  cells.last_touched = batch;
  const bool defer = bootstrap_.num_trials() > 0;
  if (defer) {
    deferred_certain_.AddRow(cells.aggs.data(), row.stream_uid, row.weight,
                             row.FromStream());
  }
  for (size_t a = 0; a < block_->aggs.size(); ++a) {
    const Value v = block_->aggs[a].arg->Eval(row.values, ctx);
    cells.aggs[a].AddMainOnly(v, row.weight);
    if (defer) deferred_certain_.AddArg(static_cast<uint32_t>(a), v);
  }
}

bool BlockExecutor::EvaluateRowCompiled(const ExecRow& row, RowEval* ev,
                                        ExprProgramState* ps) const {
  const int trials = bootstrap_.num_trials();
  // Prologue: trial-invariant subexpressions plus one batched resolver
  // probe per aggregate-lookup site, then the main (trial = -1) pass. A
  // non-aggregate block reads only the main pass, so it binds no replicas.
  if (!row_program_->Bind(ps, row.values, registry_,
                          block_->has_aggregate() ? trials : 0)) {
    return false;
  }
  if (!row_program_->EvalTrial(ps, row.values, -1)) return false;
  ev->main_pass =
      filter_root_ < 0 || row_program_->RootTruthy(*ps, filter_root_);
  if (!block_->has_aggregate()) return true;
  const size_t num_aggs = block_->aggs.size();
  ev->key = GroupKeyOf(row);
  ev->key_hash = HashRow(ev->key);
  if (ev->main_pass) {
    ev->main_vals.clear();
    ev->main_vals.reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      ev->main_vals.push_back(row_program_->RootValue(
          *ps, static_cast<size_t>(arg_root_base_) + a));
    }
  }
  // Candidate weights up front; EvalTrials zeroes the trials whose filter
  // decision fails under that resample and fills the argument values of the
  // surviving ones — the same end state the interpreted loop produces.
  ev->trial_w.assign(trials, 0.0);
  ev->trial_vals.assign(static_cast<size_t>(trials) * num_aggs, Value());
  for (int t = 0; t < trials; ++t) {
    ev->trial_w[t] =
        row.weight *
        (row.FromStream() ? bootstrap_.WeightAt(row.stream_uid, t) : 1);
  }
  return row_program_->EvalTrials(ps, row.values, trials, filter_root_,
                                  arg_root_base_, num_aggs, ev->trial_w.data(),
                                  ev->trial_vals.data());
}

void BlockExecutor::EvaluateRow(ExecRow* row, bool charge_regeneration,
                                RowEval* ev, ExprProgramState* prog_state) const {
  // A snapshot consumer's rows were built this batch by
  // AggregateRegistry::OutputRow: the key and a Lookup of each aggregate
  // column, which is exactly their lineage. A refresh would rewrite them
  // with the same values.
  if (!stateless_) RefreshRow(row, charge_regeneration);

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
  ev->truth = Classify(*row, &sink);

  ev->pending_route =
      ev->truth != IntervalTruth::kAlwaysFalse &&
      !(ev->truth == IntervalTruth::kAlwaysTrue &&
        !(block_->has_aggregate() && any_agg_arg_uncertain_));
  if (!ev->pending_route) return;

  // Non-deterministic path: precompute the main filter decision and the
  // per-trial membership/argument evaluations. These read only the row and
  // the registry (frozen during a batch), never the sketch, so they run
  // concurrently per row; the contributions are applied serially later.
  if (prog_state != nullptr && EvaluateRowCompiled(*row, ev, prog_state)) {
    return;
  }
  // Interpreter path: no compiled program, or the row bailed mid-way (the
  // re-assignments below overwrite anything the compiled attempt wrote).
  EvalContext ctx = MainContext();
  ev->main_pass = block_->filter == nullptr ||
                  block_->filter->Eval(row->values, ctx).IsTruthy();
  if (!block_->has_aggregate()) return;
  const size_t num_aggs = block_->aggs.size();
  ev->key = GroupKeyOf(*row);
  ev->key_hash = HashRow(ev->key);
  ev->main_vals.clear();
  if (ev->main_pass) {
    ev->main_vals.reserve(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      ev->main_vals.push_back(block_->aggs[a].arg->Eval(row->values, ctx));
    }
  }
  // Per-trial membership: the decision the filter takes under each
  // bootstrap resample, using the trial replicas of the aggregates it
  // reads. This is what makes the error estimate honest for tuples whose
  // membership is itself uncertain.
  const int trials = bootstrap_.num_trials();
  ev->trial_w.assign(trials, 0.0);
  ev->trial_vals.assign(static_cast<size_t>(trials) * num_aggs, Value());
  for (int t = 0; t < trials; ++t) {
    const double w =
        row->weight *
        (row->FromStream() ? bootstrap_.WeightAt(row->stream_uid, t) : 1);
    if (w == 0.0) continue;
    ctx.trial = t;
    if (block_->filter != nullptr &&
        !block_->filter->Eval(row->values, ctx).IsTruthy()) {
      continue;
    }
    ev->trial_w[t] = w;
    for (size_t a = 0; a < num_aggs; ++a) {
      ev->trial_vals[static_cast<size_t>(t) * num_aggs + a] =
          block_->aggs[a].arg->Eval(row->values, ctx);
    }
  }
}

void BlockExecutor::ApplyPending(const ExecRow& row, size_t eval_idx,
                                 int batch, GroupedAggregateState* temp) {
  const RowEval& ev = row_scratch_[eval_idx];
  GroupedAggregateState::GroupCells* cells = nullptr;
  if (ev.main_pass) {
    cells = &temp->GetOrCreate(ev.key, ev.key_hash, batch);
    for (size_t a = 0; a < block_->aggs.size(); ++a) {
      cells->aggs[a].AddMainOnly(ev.main_vals[a], row.weight);
    }
  }
  bool any_trial = false;
  for (double w : ev.trial_w) any_trial = any_trial || w != 0.0;
  if (!any_trial) return;
  if (cells == nullptr) {
    // Trial-only pass: contribute only when the group's existence is
    // already established by a main-evaluation contribution (sketch or
    // another pending row). A group passing only in resamples must not
    // materialize in the output — Q(D_i) is defined by the main
    // evaluation (ghost groups would violate Theorem 1); its trial
    // replicas are folded only where the group exists. The check is
    // loop-invariant across this row's trials (nothing mutates the maps
    // between them), so one check covers all surviving trials.
    if (sketch_.Find(ev.key, ev.key_hash) == nullptr &&
        temp->Find(ev.key, ev.key_hash) == nullptr) {
      return;
    }
    cells = &temp->GetOrCreate(ev.key, ev.key_hash, batch);
  }
  deferred_pending_.push_back(
      {cells->aggs.data(), static_cast<uint32_t>(eval_idx)});
}

void BlockExecutor::FlushDeferredTrials() {
  const int trials = bootstrap_.num_trials();
  if (trials == 0 || (deferred_certain_.empty() && deferred_pending_.empty())) {
    deferred_certain_.Clear();
    deferred_pending_.clear();
    return;
  }
  const size_t num_aggs = block_->aggs.size();
  const auto flush_range = [&](size_t begin, size_t end, size_t /*lane*/) {
    // Certain rows, then pending rows, each in serial-apply order. The two
    // lists target disjoint accumulators (sketch vs. the batch scratch), so
    // every (accumulator, trial) receives its adds in row order — the order
    // the pre-parallel engine produced.
    deferred_certain_.FoldTrials(bootstrap_, static_cast<int>(begin),
                                 static_cast<int>(end));
    for (const PendingTrialAdd& rec : deferred_pending_) {
      const RowEval& ev = row_scratch_[rec.eval_idx];
      for (size_t a = 0; a < num_aggs; ++a) {
        for (size_t t = begin; t < end; ++t) {
          rec.accs[a].AddTrialOnly(static_cast<int>(t),
                                   ev.trial_vals[t * num_aggs + a],
                                   ev.trial_w[t]);
        }
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelRanges(static_cast<size_t>(trials), flush_range);
  } else {
    flush_range(0, static_cast<size_t>(trials), 0);
  }
  deferred_certain_.Clear();
  deferred_pending_.clear();
}

void BlockExecutor::RouteRow(ExecRow row, size_t eval_idx, int batch,
                             GroupedAggregateState* temp,
                             std::vector<ExecRow>* new_pending) {
  const RowEval& ev = row_scratch_[eval_idx];
  if (ev.truth == IntervalTruth::kAlwaysFalse) return;
  if (!ev.pending_route) {
    if (block_->has_aggregate()) {
      AccumulateCertain(row, batch, &sketch_);
    } else {
      sink_bytes_ += row.ByteSize();
      sink_rows_.push_back(std::move(row));
    }
    return;
  }
  // Non-deterministic (or permanently unsketchable): contributes revocably
  // this batch and is saved for re-evaluation in the next one.
  if (block_->has_aggregate()) {
    ApplyPending(row, eval_idx, batch, temp);
  } else if (ev.main_pass) {
    pending_passing_.push_back(new_pending->size());
  }
  new_pending->push_back(std::move(row));
}

int BlockExecutor::ProcessBatch(int batch, double scale,
                                std::vector<RowBatch> input_deltas,
                                BlockBatchStats* stats) {
  if (stateless_) {
    // Snapshot consumer: the controller passes the upstream's full output
    // relation; re-evaluate it from scratch (it is small — aggregate
    // results) and keep no cross-batch state.
    sketch_.Clear();
    sink_rows_.clear();
    sink_bytes_ = 0;
    pending_.clear();
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

  // Re-evaluate the saved non-deterministic set (§5.1: delta update based
  // on U_{i-1} and ΔD_i).
  stats->recomputed_rows += pending_.size();
  if (!lazy_enabled()) {
    // Without OPT2 the saved tuples are re-shipped / re-derived.
    stats->shipped_bytes += BatchByteSize(pending_);
  }

  // Evaluation phase over fresh ∪ pending rows: refresh, classify (with
  // buffered constraints), and the per-trial re-evaluations of rows bound
  // for the non-deterministic path. Evaluations read only the row and the
  // registry — which is frozen until the apply phase replays constraints
  // and PublishOutput republishes — so rows are independent and the pass
  // parallelizes without changing any outcome.
  const size_t num_fresh = fresh.size();
  const size_t total_rows = num_fresh + pending_.size();
  row_scratch_.clear();
  row_scratch_.resize(total_rows);

  const auto evaluate = [&](size_t begin, size_t end, size_t lane) {
    // Each ParallelRanges lane owns one compiled-program scratch state;
    // inline execution is lane 0.
    ExprProgramState* prog_state =
        row_program_ != nullptr ? &prog_states_[lane] : nullptr;
    for (size_t i = begin; i < end; ++i) {
      ExecRow& row = i < num_fresh ? fresh[i] : pending_[i - num_fresh];
      EvaluateRow(&row, /*charge_regeneration=*/i >= num_fresh,
                  &row_scratch_[i], prog_state);
    }
  };
  if (pool_ != nullptr) {
    // Pure evaluation into disjoint scratch slots: re-running a range after
    // a simulated worker crash overwrites the same slots, so the phase is
    // idempotent and participates in pool-task fault injection.
    pool_->ParallelRanges(total_rows, evaluate, /*idempotent=*/true);
  } else {
    evaluate(0, total_rows, 0);
  }

  // Pre-size the group maps with this batch's routing counts (upper bounds
  // on new groups) so the serial apply phase never rehashes mid-loop.
  if (block_->has_aggregate()) {
    size_t certain_rows = 0;
    size_t pending_rows = 0;
    for (const RowEval& ev : row_scratch_) {
      if (ev.truth == IntervalTruth::kAlwaysFalse) continue;
      if (ev.pending_route) {
        ++pending_rows;
      } else {
        ++certain_rows;
      }
    }
    sketch_.Reserve(certain_rows);
    temp.Reserve(pending_rows);
  }

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
    ExecRow& row = i < num_fresh ? fresh[i] : pending_[i - num_fresh];
    RouteRow(std::move(row), i, batch, &temp, &new_pending);
  }
  pending_ = std::move(new_pending);

  // Drain the deferred trial-replica contributions (trial-partitioned)
  // before publication reads the accumulators.
  FlushDeferredTrials();

  const int rollback = PublishOutput(batch, scale, temp, stats);
  row_scratch_.clear();
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
  std::unordered_set<Row, RowHash, RowEq> temp_keys_now;

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

  // A group's unscaled results, materialized from its accumulator cells.
  struct Materialized {
    std::vector<Value> main;
    std::vector<std::vector<double>> trials;
    std::vector<double> analytic_sd;
  };
  // Merges the sketch and scratch cells when the group has both.
  auto materialize = [&](const GroupedAggregateState::GroupCells* sketch_cells,
                         const GroupedAggregateState::GroupCells* temp_cells) {
    Materialized m;
    m.main.reserve(num_aggs);
    m.trials.reserve(num_aggs);
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
      m.main.push_back(acc->MainResult(1.0));
      m.trials.push_back(acc->TrialResults(1.0));
      if (analytic) {
        m.analytic_sd.push_back(UnscaledAnalyticSd(*block_->aggs[a].fn, *acc));
      }
    }
    return m;
  };

  // One serial walk in a fixed order (sketch groups, then scratch-only
  // groups): integrity checks, registry publication (and with it the
  // batch's live groups) and the join feed all follow it.
  auto publish = [&](const Row& key,
                     const GroupedAggregateState::GroupCells* sketch_cells,
                     const GroupedAggregateState::GroupCells* temp_cells) {
    engine_serial_phase.AssertHeld();  // called only from the walk below
    if (temp_cells != nullptr) temp_keys_now.insert(key);
    const bool dirty =
        force_full_publish_ || temp_cells != nullptr ||
        (sketch_cells != nullptr && sketch_cells->last_touched == batch) ||
        prev_temp_keys_.count(key) > 0;
    if (!dirty) {
      // Untouched group: integrity-refresh the stored envelope under the
      // new scale. Nothing wrote its sketch cells since it was last
      // published, so they hold exactly the published results.
      const auto result = registry_->Refresh(block_->id, key, batch, track);
      if (!result.missing) {
        note_result(result);
        return;
      }
      // Never published (first batch after a restore): materialize and
      // publish like a dirty group.
    }
    Materialized m = materialize(sketch_cells, temp_cells);
    const auto result = registry_->Publish(
        block_->id, key, batch, std::move(m.main), std::move(m.trials), track,
        analytic ? &m.analytic_sd : nullptr);
    note_result(result);
    // Emit the group downstream the first time it appears, scaled to m_i.
    if (feeds_join_ && result.created) {
      ExecRow out;
      out.values = registry_->OutputRow(block_->id, key);
      new_output_rows_.push_back(std::move(out));
    }
  };
  for (const auto& [key, cells] : sketch_.groups()) {
    publish(key, cells.get(), temp.Find(key));
  }
  for (const auto& [key, cells] : temp.groups()) {
    if (sketch_.Find(key) == nullptr) publish(key, nullptr, cells.get());
  }
  prev_temp_keys_ = std::move(temp_keys_now);
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
  const EvalContext main_ctx = MainContext();
  EvalContext ctx = main_ctx;
  const size_t num_proj = block_->projections.size();
  // Trials run only for uncertain projections that compute a value; a
  // pass-through column's estimate is its registry cell's. In analytic mode
  // there are no trials, so a computed column reports a zero-width band.
  const int trials = per_trial_projections_ ? bootstrap_.num_trials() : 0;
  auto per_trial = [&](size_t p) {
    return ann_->output_attr_uncertain[p] && pass_through_[p] == nullptr;
  };
  // The current row's projections and per-projection replicas, reused
  // across rows.
  Row projected;
  std::vector<std::vector<double>> replicas(num_proj);
  auto clear_row = [&] {
    projected.clear();
    projected.reserve(num_proj);
    for (std::vector<double>& r : replicas) r.clear();
  };
  // Compiled projection path: one Bind (with its batched aggregate probes)
  // covers the main pass and every per-trial re-evaluation of the row.
  // Returns false on a runtime bail; the caller redoes the row interpreted.
  auto project_compiled = [&](const ExecRow& row) -> bool {
    if (proj_program_ == nullptr ||
        !proj_program_->Bind(&proj_state_, row.values, registry_, trials) ||
        !proj_program_->EvalTrial(&proj_state_, row.values, -1)) {
      return false;
    }
    for (size_t p = 0; p < num_proj; ++p) {
      projected.push_back(proj_program_->RootValue(proj_state_, p));
    }
    for (int t = 0; t < trials; ++t) {
      if (!proj_program_->EvalTrial(&proj_state_, row.values, t)) {
        return false;
      }
      for (size_t p = 0; p < num_proj; ++p) {
        if (!per_trial(p)) continue;
        const Value v = proj_program_->RootValue(proj_state_, p);
        replicas[p].push_back(v.is_null() ? projected[p].AsDouble()
                                          : v.AsDouble());
      }
    }
    return true;
  };
  auto project_interpreted = [&](const ExecRow& row) {
    ctx.trial = -1;
    for (const ExprPtr& p : block_->projections) {
      projected.push_back(p->Eval(row.values, ctx));
    }
    for (size_t p = 0; p < num_proj; ++p) {
      if (!per_trial(p)) continue;
      for (int t = 0; t < trials; ++t) {
        ctx.trial = t;
        const Value v = block_->projections[p]->Eval(row.values, ctx);
        replicas[p].push_back(v.is_null() ? projected[p].AsDouble()
                                          : v.AsDouble());
      }
    }
  };
  auto emit = [&](const ExecRow& row) {
    clear_row();
    if (!project_compiled(row)) {
      clear_row();
      project_interpreted(row);
    }
    std::vector<ErrorEstimate> row_estimates;
    for (size_t p = 0; p < num_proj; ++p) {
      if (!ann_->output_attr_uncertain[p]) continue;
      if (const AggLookupExpr* cell = pass_through_[p]) {
        row_estimates.push_back(
            registry_->Estimate(cell->block_id(), cell->agg_col(),
                                cell->EvalKey(row.values, main_ctx)));
      } else {
        const Value& v = projected[p];
        row_estimates.push_back(
            EstimateError(v.is_null() ? 0.0 : v.AsDouble(), replicas[p]));
      }
    }
    estimates->push_back(std::move(row_estimates));
    out.AddRow(std::move(projected));
  };
  // Rows a block keeps across batches carry the values of the batch that
  // routed them: refresh a copy. A snapshot consumer's rows, and every
  // passing pending row, were refreshed this batch.
  for (const ExecRow& row : sink_rows_) {
    if (stateless_) {
      emit(row);
    } else {
      ExecRow refreshed = row;
      RefreshRow(&refreshed, /*charge_regeneration=*/false);
      emit(refreshed);
    }
  }
  for (size_t i : pending_passing_) emit(pending_[i]);
  return out;
}

size_t BlockExecutor::JoinStateBytes() const {
  size_t total = 0;
  for (const JoinStep& step : join_steps_) total += step.StateBytes();
  return total;
}

size_t BlockExecutor::OtherStateBytes() const {
  return sketch_.ByteSize() + BatchByteSize(pending_) + sink_bytes_;
}

std::shared_ptr<const BlockExecutor::Checkpoint> BlockExecutor::MakeCheckpoint(
    int batch) const {
  auto cp = std::make_shared<Checkpoint>();
  cp->batch = batch;
  cp->join_marks.reserve(join_steps_.size());
  for (const JoinStep& step : join_steps_) {
    cp->join_marks.push_back(step.watermark());
  }
  // A stateless consumer clears its sketch and pending set before reading
  // them (ProcessBatch), so only the batch and the watermarks matter.
  if (!stateless_) {
    cp->pending = pending_;
    cp->sketch = sketch_;  // shares the group nodes (copy-on-write)
  }
  cp->sink_watermark = sink_rows_.size();
  // Checksum the snapshot, not the live state: restore verifies exactly the
  // object it is about to replay. Groups not written since they were last
  // hashed contribute their cached hashes.
  cp->checksum = ChecksumCheckpoint(*cp, /*use_cache=*/true);
  if (IOLAP_FAILPOINT(Failpoint::kCheckpointCaptureCorrupt, batch)) {
    cp->checksum ^= 1;  // simulated bit-rot between capture and restore
  }
  return cp;
}

size_t BlockExecutor::Checkpoint::ByteSize(
    std::unordered_set<const GroupedAggregateState::GroupCells*>* counted)
    const {
  size_t total = sizeof(Checkpoint);
  total += join_marks.size() * sizeof(JoinStep::Watermark);
  total += BatchByteSize(pending);
  total += sketch.ByteSize(counted);
  return total;
}

uint64_t BlockExecutor::ChecksumCheckpoint(const Checkpoint& checkpoint,
                                           bool use_cache) {
  // Scalars and ordered containers fold order-sensitively.
  uint64_t h = HashCombine(0, static_cast<uint64_t>(checkpoint.batch));
  for (const JoinStep::Watermark& mark : checkpoint.join_marks) {
    h = HashCombine(h, mark.input);
    h = HashCombine(h, mark.prefix);
  }
  for (const ExecRow& row : checkpoint.pending) {
    h = HashCombine(h, HashRow(row.values));
    h = HashCombine(h, row.stream_uid);
    h = HashCombine(h, std::bit_cast<uint64_t>(row.weight));
  }
  h = HashCombine(h, checkpoint.sink_watermark);
  return HashCombine(h, checkpoint.sketch.ContentHash(use_cache));
}

bool BlockExecutor::VerifyCheckpoint(const Checkpoint& checkpoint) {
  if (IOLAP_FAILPOINT(Failpoint::kCheckpointRestoreFault, checkpoint.batch)) {
    return false;  // simulated corruption detected at restore time
  }
  return ChecksumCheckpoint(checkpoint, /*use_cache=*/false) ==
         checkpoint.checksum;
}

void BlockExecutor::Restore(const Checkpoint& checkpoint) {
  for (size_t k = 0; k < join_steps_.size(); ++k) {
    join_steps_[k].TruncateTo(checkpoint.join_marks[k]);
  }
  if (stateless_) {
    pending_.clear();
    sketch_.Clear();
  } else {
    pending_ = checkpoint.pending;
    sketch_ = checkpoint.sketch;  // shares the group nodes (copy-on-write)
  }
  sink_rows_.resize(checkpoint.sink_watermark);
  sink_bytes_ = BatchByteSize(sink_rows_);
  new_output_rows_.clear();
  pending_passing_.clear();
  prev_temp_keys_.clear();
  // Registry values may be newer than the restored sketches.
  force_full_publish_ = true;
}

void BlockExecutor::Reset() {
  for (JoinStep& step : join_steps_) {
    step.TruncateTo(JoinStep::Watermark{0, 0});
  }
  pending_.clear();
  sketch_.Clear();
  sink_rows_.clear();
  sink_bytes_ = 0;
  new_output_rows_.clear();
  pending_passing_.clear();
  prev_temp_keys_.clear();
  force_full_publish_ = true;
}

}  // namespace iolap
