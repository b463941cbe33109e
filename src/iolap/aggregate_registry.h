#ifndef IOLAP_IOLAP_AGGREGATE_REGISTRY_H_
#define IOLAP_IOLAP_AGGREGATE_REGISTRY_H_

#include <unordered_map>
#include <vector>

#include "bootstrap/error_estimate.h"
#include "bootstrap/variation_range.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/expr.h"
#include "plan/logical_plan.h"

namespace iolap {

/// The engine's *serial apply phase* as a static capability (no runtime
/// lock; see ThreadRole). Every batch splits into parallel evaluation
/// phases — which only read the plan, the rows, and the frozen registry —
/// and a serial apply phase on the driving thread that performs all state
/// mutation in deterministic row/group order. Mutation-side APIs
/// (AggregateRegistry publication, BlockExecutor routing/publication)
/// declare IOLAP_REQUIRES(engine_serial_phase); the driver (and any test
/// or bench that drives these APIs directly) enters the phase with
/// `ScopedThreadRole serial(engine_serial_phase);`. Under Clang
/// -Wthread-safety this turns "mutation escaped into a parallel lambda" —
/// the race class that would silently break Theorem 1's bit-identical
/// replay guarantee — into a compile error.
extern ThreadRole engine_serial_phase;

/// The shared store of every aggregate block's current output: the runtime
/// "rel" that the paper's lineage references `(rel(γ), t.key)` resolve
/// against (§6.2), and the only stored copy of that output. Each block's
/// relation is a table of *slots*, one per group, numbered in creation
/// order, with a key → slot index. Per slot it holds the group's key, its
/// first batch and — for blocks whose values feed classification — the
/// variation-range trackers of §5.1; per (slot, aggregate), flat arrays
/// hold the current value and the bootstrap trial replicas with the
/// replicas' envelope, and — for the blocks whose cells the result
/// estimates (KeepRanks) — the replicas' CI ranks. Groups are created in
/// batch order, so RollbackTo
/// pops the newest slots and every surviving slot keeps its number. The
/// user's result and snapshot consumers' input are read from it: the
/// *live* slots of a batch (LiveGroups) are the groups its publication walk
/// reached. A group whose only contributions have lapsed keeps its slot,
/// stale, for lineage lookups, but is not live.
///
/// Values are stored *unscaled* (multiplicity scale 1) together with the
/// block's current scale m_i; lookups re-scale lazily (SUM/COUNT results
/// are linear in the scale, everything else invariant — see
/// AggregateFunction::scales_linearly). This lets the delta engine publish
/// only the groups an incoming batch actually touched: untouched groups are
/// merely Refresh()ed by slot, which re-runs the integrity check on the
/// stored replica envelope under the new scale without re-materializing
/// replicas or probing the key index.
///
/// In the paper this relation is broadcast to all workers each batch so the
/// lazy-evaluation join is local; here a lookup is a hash probe and the
/// broadcast is charged to the shipped-bytes cost model by the controller.
class AggregateRegistry final : public AggLookupResolver,
                                public RangeConstraintSink {
 public:
  /// `plan` supplies per-block group-key arity and per-aggregate scaling
  /// behaviour; `slack` is the §5.1 ε; every published aggregate carries
  /// `num_trials` replicas.
  AggregateRegistry(const QueryPlan* plan, double slack, int num_trials);

  struct PublishResult {
    bool ok = true;
    /// On an integrity-check failure: the latest batch that is still
    /// consistent (-1 = restart from scratch).
    int rollback_to = -1;
    /// Publish only: the call created the group's slot (the group is new to
    /// consumers).
    bool created = false;
    /// Publish only: the group's slot.
    int slot = -1;
    /// The failure is a failpoint-injected spurious verdict, not a real
    /// constraint violation. The controller replays injected-only
    /// recoveries with *unfrozen* ranges: the replay cannot livelock (no
    /// decision actually went bad) and reproduces the fault-free execution
    /// bit for bit — see docs/INTERNALS.md §9.
    bool injected = false;
  };

  /// Sets block `block`'s current multiplicity scale m_i; call once per
  /// batch before publishing or refreshing its groups.
  void SetBlockScale(int block, double scale)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Block `block`'s cells are estimated (the result is built from them):
  /// from now on Publish keeps each bootstrap cell's unscaled CI ranks
  /// (RankReplicas) beside its envelope, and Estimate scales them instead
  /// of ranking the replicas again. With fewer than two trials there is no
  /// band to rank, and nothing is kept. Call before the block's first
  /// Publish.
  void KeepRanks(int block);

  /// Publishes (or overwrites) group `key` of block `block` at `batch`
  /// with *unscaled* results: `main` has one value per aggregate column,
  /// `trials[a * num_trials + t]` is replica t of aggregate a. Groups must
  /// be created in batch order. `track_ranges` enables variation-range
  /// maintenance and the integrity check (enabled for blocks consumed
  /// downstream). `analytic_sd`, when non-null (analytic error mode),
  /// supplies the unscaled per-aggregate stddevs (negative = no closed
  /// form) used to synthesize the replica envelope (±2σ) instead of
  /// deriving it from `trials`, and kept for Estimate. Marks the group live
  /// at `batch`.
  PublishResult Publish(int block, const Row& key, int batch,
                        const Value* main, const double* trials,
                        bool track_ranges,
                        const double* analytic_sd = nullptr)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Integrity-checks an *untouched*, already published group, the one in
  /// `slot` (its Publish's PublishResult::slot), under the current scale
  /// using its stored replica envelope, and marks it live at `batch`.
  PublishResult Refresh(int block, int slot, int batch, bool track_ranges)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Failure recovery: forgets groups first published after `batch` (the
  /// newest slots) and rolls the surviving groups' range constraints back
  /// to it, freezing classification ranges for `freeze_updates` replayed
  /// batches (see VariationRangeTracker::RecoverTo). No group stays live:
  /// the replay's walks mark them again, and frozen replays may route
  /// differently.
  void RollbackTo(int batch, int freeze_updates = 0)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Recovery-storm degradation (staircase level 1): scales the envelope
  /// slack ε of every live tracker and of trackers created from now on.
  void ScaleSlack(double factor) IOLAP_REQUIRES(engine_serial_phase);

  /// Number of groups currently published for `block`.
  size_t GroupCount(int block) const { return relations_[block].slots.size(); }

  /// The slots of `block` that its publication walk at `batch` published or
  /// refreshed, in the order the walk reached them; empty when the latest
  /// walk was at another batch. Publish and Refresh must reach a key at most
  /// once per walk.
  const std::vector<int>& LiveGroups(int block, int batch) const;

  /// The row of `slot` in the block's output relation under its current
  /// scale m_i: the key, then Lookup of each aggregate column.
  Row OutputRow(int block, int slot) const;

  /// The group key held by `slot`.
  const Row& GroupKey(int block, int slot) const {
    return *relations_[block].slots[slot].key;
  }

  /// Error estimate of aggregate column `col` (output-schema index) of
  /// `slot` under the block's current scale m_i. The value is what Lookup
  /// returns (null counts as 0). Bootstrap: EstimateError over the
  /// replicas, scaled like the value; a block that keeps ranks scales its
  /// stored ranks and runs only the stddev passes, with the same bits.
  /// Analytic: the closed-form stddev,
  /// scaled like the value and shrunk by the finite-population correction
  /// sqrt(1 - 1/m_i), so the band closes on the final batch; no closed
  /// form gives a zero-width band.
  ErrorEstimate Estimate(int block, int col, int slot) const;
  /// The same for group `key`; a key column or a missing group gives a
  /// zero-width band at its value.
  ErrorEstimate Estimate(int block, int col, const Row& key) const;

  /// Approximate bytes of `block`'s published relation (key + replicated
  /// values): the per-batch broadcast payload of the lazy-evaluation join.
  /// O(1): a running total.
  size_t RelationBytes(int block) const { return relations_[block].bytes; }

  /// Every relation's bytes plus its variation-range trackers; O(blocks).
  size_t TotalBytes() const;

  // --- RangeConstraintSink -----------------------------------------------
  // Routes the obligations of pruning decisions (ClassifyPredicate with a
  // constraint sink) to the per-group variation-range trackers. A value
  // with no obligations can never fail the integrity check; values that
  // repeatedly betray their obligations are permanently demoted to
  // Unbounded ranges (their consumers simply stay non-deterministic, and
  // they take no new obligations), but keep verifying the obligations they
  // already carry.
  void RequireUpper(int block, int col, const Row& key, double bound) override
      IOLAP_REQUIRES(engine_serial_phase);
  void RequireLower(int block, int col, const Row& key, double bound) override
      IOLAP_REQUIRES(engine_serial_phase);
  void RequireContainment(int block, int col, const Row& key) override
      IOLAP_REQUIRES(engine_serial_phase);

  // --- AggLookupResolver -------------------------------------------------
  // `col` indexes the block's output schema; group-key columns resolve to
  // the key itself (deterministic), aggregate columns to published values
  // re-scaled to the block's current m_i.
  //
  // Deliberately NOT role-annotated: lookups are the parallel evaluation
  // phases' hot path and read the registry while it is frozen (no Publish /
  // Refresh / Require* runs concurrently — which is exactly what the
  // IOLAP_REQUIRES annotations above enforce). FindSlot's thread_local
  // hints keep the concurrent probes allocation- and contention-free.

  /// Primes the calling thread's lookup hint for `block` with `slot`: the
  /// next lookups of the key that slot holds find it without hashing. The
  /// hint counts only while its slot holds the probed key, so a wrong slot
  /// costs a probe, never a value.
  static void PrimeLookupHint(int block, int slot);
  Value Lookup(int block, int col, const Row& key) const override;
  Value LookupTrial(int block, int col, const Row& key,
                    int trial) const override;
  /// Batched probe for the compiled expression path: one slot lookup for
  /// all trials instead of one per trial. Result-identical to calling
  /// LookupTrial for each trial in [0, num_trials).
  void LookupTrials(int block, int col, const Row& key, int num_trials,
                    Value* out) const override;
  Interval LookupRange(int block, int col, const Row& key) const override;

 private:
  // The doubles of one (slot, aggregate): num_trials_ replicas, then these,
  // then in a relation that keeps ranks the ReplicaRanks lo[0], lo[1],
  // hi[0], hi[1] of the unscaled replicas.
  enum Tail { kEnvLo, kEnvHi, kEnvSd, kAnalyticSd, kTailSize };
  static constexpr size_t kRankSize = 4;

  struct Slot {
    /// The group's key: the key → slot index's copy.
    const Row* key = nullptr;
    int first_batch = 0;
    /// Graceful per-value degradation: after repeated failures the range
    /// is reported as Unbounded forever — rows consulting it simply stay
    /// in the non-deterministic set and register no new obligations on it.
    /// The obligations it already carries are still verified: the rows
    /// decided under them stay decided until a failure undoes them.
    /// Pruning on well-behaved values continues.
    bool range_disabled = false;
    /// The last Publish supplied closed-form stddevs (analytic mode).
    bool analytic = false;
    std::vector<VariationRangeTracker> ranges;  // empty if not tracked
  };
  struct Relation {
    int num_keys = 0;
    double scale = 1.0;
    std::vector<bool> linear;  // per aggregate column
    bool ranked = false;       // KeepRanks
    size_t stride = 0;         // doubles per (slot, aggregate)
    std::unordered_map<Row, int, RowHash, RowEq> index;  // key → slot
    std::vector<Slot> slots;                             // creation order
    /// Per [slot × aggregate]: the unscaled value, and num_trials_
    /// unscaled replicas followed by the Tail (unscaled envelope min / max
    /// / stddev, what Refresh() re-scales instead of walking the replicas;
    /// the unclamped closed-form stddev in analytic mode) and the ranks.
    std::vector<Value> mains;
    std::vector<double> doubles;
    // The slots the latest publication walk reached, in walk order, and
    // that walk's batch (-1 = none since the last RollbackTo).
    std::vector<int> live;
    int live_batch = -1;
    // Running byte totals over the slots: keys, main values and replicas
    // (RelationBytes), and variation-range trackers. Every write path
    // (Publish, Refresh, RollbackTo) adjusts them for what it changed.
    size_t bytes = 0;
    size_t tracker_bytes = 0;
    // Integrity failures charged per group. Deliberately NOT rolled back:
    // a failure recovery forgets groups created after the recovery point,
    // and without the persistent count a chronically misbehaving value
    // would be recreated with a clean slate and fail identically forever.
    std::unordered_map<Row, int, RowHash, RowEq> failure_counts;
  };

  /// The slot of group `key` of `block`, or -1.
  int FindSlot(int block, const Row& key) const;
  /// Mutable tracker access for constraint registration; null when the
  /// group is missing, disabled, or untracked.
  VariationRangeTracker* TrackerFor(int block, int col, const Row& key)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Scale applied to aggregate column `a` under `rel`'s current m_i.
  double ColScale(const Relation& rel, size_t a) const {
    return rel.linear[a] ? rel.scale : 1.0;
  }

  /// The [slot × aggregate] index of aggregate `a` of `slot`: its position
  /// in `mains`, and in `doubles` in units of the relation's stride.
  static size_t Cell(const Relation& rel, size_t slot, size_t a) {
    return slot * rel.linear.size() + a;
  }
  /// The replicas of aggregate `a` of `slot`, followed by its Tail.
  const double* Replicas(const Relation& rel, size_t slot, size_t a) const {
    return rel.doubles.data() + Cell(rel, slot, a) * rel.stride;
  }

  /// Aggregate `a` of `slot` re-scaled to `rel`'s current m_i: what Lookup
  /// returns for it.
  Value ScaledValue(const Relation& rel, size_t slot, size_t a) const;

  /// Appends `slot` to the live groups of the walk at `batch`, starting
  /// that walk's list on its first write.
  static void MarkLive(Relation& rel, int slot, int batch)
      IOLAP_REQUIRES(engine_serial_phase);

  /// Per-column integrity updates for `slot` under the current scale;
  /// shared by Publish and Refresh. `batch` feeds the fault-injection
  /// seams (registry-envelope-fault keys its schedule on it).
  void CheckRanges(Relation& rel, size_t slot, int batch,
                   PublishResult* result) IOLAP_REQUIRES(engine_serial_phase);

  double slack_;
  int num_trials_;
  std::vector<Relation> relations_;  // indexed by block id
};

}  // namespace iolap

#endif  // IOLAP_IOLAP_AGGREGATE_REGISTRY_H_
