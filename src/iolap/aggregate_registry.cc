#include "iolap/aggregate_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/failpoint.h"

namespace iolap {

// The serial apply phase's capability object. Purely static: it is never
// contended and costs nothing to "acquire" — it exists so Clang's
// -Wthread-safety can prove registry mutation never escapes into a
// parallel evaluation lambda (see the declaration in the header).
ThreadRole engine_serial_phase;

namespace {

size_t TrackerBytes(const std::vector<VariationRangeTracker>& ranges) {
  size_t total = 0;
  for (const VariationRangeTracker& tracker : ranges) {
    total += tracker.ByteSize();
  }
  return total;
}

// FindSlot's lookup hints, one per block (blocks kHintBlocks apart share
// one): the delta engine resolves the same group once per bootstrap trial
// in tight loops, a row may read groups of two blocks in turn (Q11's HAVING
// reads its own group and the scalar total), and a snapshot consumer
// primes its block's hint with the slot its feed row came from.
// thread_local (rather than a mutable member) so concurrent const lookups
// from pool workers stay race-free. A hint counts only when its slot still
// holds the probed key, which then is that key's slot whatever happened
// since (the slot may have been popped and reused, or belong to another
// registry), so nothing invalidates it.
struct LookupHint {
  int block = -1;
  size_t slot = 0;
};
constexpr int kHintBlocks = 8;
thread_local LookupHint lookup_hints[kHintBlocks];

}  // namespace

AggregateRegistry::AggregateRegistry(const QueryPlan* plan, double slack,
                                     int num_trials)
    : slack_(slack), num_trials_(num_trials) {
  relations_.resize(plan->blocks.size());
  for (size_t b = 0; b < plan->blocks.size(); ++b) {
    const Block& block = plan->blocks[b];
    relations_[b].num_keys = static_cast<int>(block.group_by.size());
    relations_[b].stride = static_cast<size_t>(num_trials) + kTailSize;
    relations_[b].linear.reserve(block.aggs.size());
    for (const AggSpec& agg : block.aggs) {
      relations_[b].linear.push_back(agg.fn->scales_linearly);
    }
  }
}

void AggregateRegistry::SetBlockScale(int block, double scale) {
  relations_[block].scale = scale;
}

void AggregateRegistry::KeepRanks(int block) {
  Relation& rel = relations_[block];
  assert(rel.slots.empty());
  if (num_trials_ < 2) return;  // no band to rank (analytic, baseline)
  rel.ranked = true;
  rel.stride = static_cast<size_t>(num_trials_) + kTailSize + kRankSize;
}

void AggregateRegistry::MarkLive(Relation& rel, int slot, int batch) {
  if (rel.live_batch != batch) {
    rel.live.clear();
    rel.live_batch = batch;
  }
  rel.live.push_back(slot);
}

void AggregateRegistry::CheckRanges(Relation& rel, size_t slot, int batch,
                                    PublishResult* result) {
  Slot& group = rel.slots[slot];
  for (size_t a = 0; a < group.ranges.size(); ++a) {
    const double s = ColScale(rel, a);
    const Value& main = rel.mains[Cell(rel, slot, a)];
    const double v = (main.is_null() ? 0.0 : main.AsDouble()) * s;
    const double* tail = Replicas(rel, slot, a) + num_trials_;
    // Fault injection: a natural-typed envelope escape. The tracker walks
    // back its constraint history like a real violation (and its state
    // stays unfolded, like a real violation), so everything below —
    // failure accounting, rollback targeting, the frozen replay — runs the
    // production path. Not flagged `injected`: the recovery must behave
    // exactly as if the envelope had really escaped. A tracker with no
    // finite constraint cannot fail; it falls through to the real update
    // so every successful batch folds exactly one snapshot (the rollback
    // targeting below converts history indexes to batches).
    VariationRangeTracker::UpdateResult update;
    if (IOLAP_FAILPOINT(Failpoint::kRegistryEnvelopeFault, batch)) {
      update = group.ranges[a].InjectInconsistency();
    }
    if (update.ok) {
      // The replica envelope is linear in the scale (s > 0 always).
      update = group.ranges[a].UpdateEnvelope(v, tail[kEnvLo] * s,
                                              tail[kEnvHi] * s,
                                              tail[kEnvSd] * s);
    }
    if (!update.ok) {
      // The failure invalidates pruning decisions that constrained this
      // value: request recovery. A value that keeps betraying its
      // obligations stops being classified on entirely.
      if (++rel.failure_counts[*group.key] >= 3) group.range_disabled = true;
      result->ok = false;
      // Convert the tracker's local history index to a global batch.
      const int global = update.last_consistent_batch < 0
                             ? group.first_batch - 1
                             : group.first_batch + update.last_consistent_batch;
      const int target = global < 0 ? -1 : global;
      if (result->rollback_to == -1 || target < result->rollback_to) {
        result->rollback_to = target;
      }
      if (target < 0) result->rollback_to = -1;
    }
  }
}

AggregateRegistry::PublishResult AggregateRegistry::Publish(
    int block, const Row& key, int batch, const Value* main,
    const double* trials, bool track_ranges, const double* analytic_sd) {
  Relation& rel = relations_[block];
  const size_t num_aggs = rel.linear.size();
  auto [it, inserted] =
      rel.index.try_emplace(key, static_cast<int>(rel.slots.size()));
  const int slot = it->second;
  if (inserted) {
    // RollbackTo forgets groups by popping the newest slots.
    assert(rel.slots.empty() || rel.slots.back().first_batch <= batch);
    Slot& group = rel.slots.emplace_back();
    group.key = &it->first;
    group.first_batch = batch;
    if (track_ranges) {
      group.ranges.assign(num_aggs, VariationRangeTracker(slack_));
    }
    auto fc = rel.failure_counts.find(key);
    if (fc != rel.failure_counts.end() && fc->second >= 3) {
      group.range_disabled = true;
    }
    rel.mains.resize(rel.mains.size() + num_aggs);
    rel.doubles.resize(rel.doubles.size() + num_aggs * rel.stride);
    rel.bytes += RowByteSize(key) + num_aggs * num_trials_ * sizeof(double);
  }
  Slot& group = rel.slots[slot];
  MarkLive(rel, slot, batch);
  group.analytic = analytic_sd != nullptr;
  for (size_t a = 0; a < num_aggs; ++a) {
    Value& stored = rel.mains[Cell(rel, slot, a)];
    if (!inserted) rel.bytes -= stored.ByteSize();
    rel.bytes += main[a].ByteSize();
    stored = main[a];
    // The replicas, and their unscaled envelope for later Refresh()es.
    double* replicas = rel.doubles.data() + Cell(rel, slot, a) * rel.stride;
    double* tail = replicas + num_trials_;
    std::copy_n(trials + a * num_trials_, num_trials_, replicas);
    const double v = main[a].is_null() ? 0.0 : main[a].AsDouble();
    if (analytic_sd != nullptr) {
      // Closed-form envelope: ±2σ around the estimate (σ < 0 = no closed
      // form: degenerate point envelope, i.e. conservative elsewhere).
      const double sd = std::max(0.0, analytic_sd[a]);
      tail[kEnvLo] = v - 2.0 * sd;
      tail[kEnvHi] = v + 2.0 * sd;
      tail[kEnvSd] = sd;
      tail[kAnalyticSd] = analytic_sd[a];
      continue;
    }
    const Envelope env =
        ReplicaEnvelope(v, replicas, static_cast<size_t>(num_trials_));
    tail[kEnvLo] = env.lo;
    tail[kEnvHi] = env.hi;
    tail[kEnvSd] = env.stddev;
    if (rel.ranked) {
      const ReplicaRanks ranks = RankReplicas(replicas, num_trials_);
      std::copy_n(ranks.lo, 2, tail + kTailSize);
      std::copy_n(ranks.hi, 2, tail + kTailSize + 2);
    }
  }
  PublishResult result;
  result.created = inserted;
  result.slot = slot;
  // The trackers created above, plus the snapshot CheckRanges folds. A
  // disabled value still verifies the obligations it carries.
  const size_t trackers_before = inserted ? 0 : TrackerBytes(group.ranges);
  if (track_ranges) CheckRanges(rel, slot, batch, &result);
  rel.tracker_bytes += TrackerBytes(group.ranges) - trackers_before;
  // Fault injection: a spurious failed verdict for a group that actually
  // passed its checks. Marked `injected`: nothing is wrong with the
  // registered constraints, so the controller replays with unfrozen ranges
  // and the recovery reproduces the fault-free run exactly.
  if (result.ok && track_ranges &&
      IOLAP_FAILPOINT(Failpoint::kRegistryPublishFault, batch)) {
    result.ok = false;
    result.injected = true;
    const int64_t depth = FailpointArg(Failpoint::kRegistryPublishFault, 1);
    result.rollback_to =
        static_cast<int>(std::max<int64_t>(-1, batch - depth));
  }
  return result;
}

AggregateRegistry::PublishResult AggregateRegistry::Refresh(
    int block, int slot, int batch, bool track_ranges) {
  Relation& rel = relations_[block];
  assert(slot >= 0 && static_cast<size_t>(slot) < rel.slots.size());
  MarkLive(rel, slot, batch);
  PublishResult result;
  if (track_ranges) {
    const std::vector<VariationRangeTracker>& ranges = rel.slots[slot].ranges;
    const size_t trackers_before = TrackerBytes(ranges);
    CheckRanges(rel, static_cast<size_t>(slot), batch, &result);
    rel.tracker_bytes += TrackerBytes(ranges) - trackers_before;
  }
  return result;
}

VariationRangeTracker* AggregateRegistry::TrackerFor(int block, int col,
                                                     const Row& key) {
  Relation& rel = relations_[block];
  if (col < rel.num_keys) return nullptr;  // key columns are deterministic
  const auto it = rel.index.find(key);
  if (it == rel.index.end()) return nullptr;
  Slot& group = rel.slots[it->second];
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (group.range_disabled || a >= group.ranges.size()) return nullptr;
  return &group.ranges[a];
}

void AggregateRegistry::RequireUpper(int block, int col, const Row& key,
                                     double bound) {
  if (VariationRangeTracker* tracker = TrackerFor(block, col, key)) {
    tracker->ConstrainUpper(bound);
  }
}

void AggregateRegistry::RequireLower(int block, int col, const Row& key,
                                     double bound) {
  if (VariationRangeTracker* tracker = TrackerFor(block, col, key)) {
    tracker->ConstrainLower(bound);
  }
}

void AggregateRegistry::RequireContainment(int block, int col,
                                           const Row& key) {
  if (VariationRangeTracker* tracker = TrackerFor(block, col, key)) {
    const Interval range = tracker->current();
    tracker->ConstrainLower(range.lo);
    tracker->ConstrainUpper(range.hi);
  }
}

void AggregateRegistry::RollbackTo(int batch, int freeze_updates) {
  for (Relation& rel : relations_) {
    rel.live.clear();
    rel.live_batch = -1;
    // Slots are created in batch order: the groups first published after
    // `batch` are the newest.
    const size_t num_aggs = rel.linear.size();
    while (!rel.slots.empty() && rel.slots.back().first_batch > batch) {
      const size_t slot = rel.slots.size() - 1;
      const Slot& group = rel.slots.back();
      rel.tracker_bytes -= TrackerBytes(group.ranges);
      rel.bytes -=
          RowByteSize(*group.key) + num_aggs * num_trials_ * sizeof(double);
      for (size_t a = 0; a < num_aggs; ++a) {
        rel.bytes -= rel.mains[Cell(rel, slot, a)].ByteSize();
      }
      rel.index.erase(rel.index.find(*group.key));
      rel.slots.pop_back();
    }
    rel.mains.resize(rel.slots.size() * num_aggs);
    rel.doubles.resize(rel.slots.size() * num_aggs * rel.stride);
    for (Slot& group : rel.slots) {
      rel.tracker_bytes -= TrackerBytes(group.ranges);
      for (VariationRangeTracker& tracker : group.ranges) {
        tracker.RecoverTo(batch - group.first_batch, freeze_updates);
      }
      rel.tracker_bytes += TrackerBytes(group.ranges);
    }
  }
}

void AggregateRegistry::ScaleSlack(double factor) {
  slack_ *= factor;
  for (Relation& rel : relations_) {
    for (Slot& group : rel.slots) {
      for (VariationRangeTracker& tracker : group.ranges) {
        tracker.ScaleSlack(factor);
      }
    }
  }
}

const std::vector<int>& AggregateRegistry::LiveGroups(int block,
                                                      int batch) const {
  static const std::vector<int> kNone;
  const Relation& rel = relations_[block];
  return rel.live_batch == batch ? rel.live : kNone;
}

Value AggregateRegistry::ScaledValue(const Relation& rel, size_t slot,
                                     size_t a) const {
  if (a >= rel.linear.size()) return Value::Null();
  const Value& v = rel.mains[Cell(rel, slot, a)];
  if (v.is_null()) return Value::Null();
  const double s = ColScale(rel, a);
  return s == 1.0 ? v : Value::Double(v.AsDouble() * s);
}

Row AggregateRegistry::OutputRow(int block, int slot) const {
  const Relation& rel = relations_[block];
  const Row& key = *rel.slots[slot].key;
  Row row;
  row.reserve(key.size() + rel.linear.size());
  row.assign(key.begin(), key.end());
  for (size_t a = 0; a < rel.linear.size(); ++a) {
    row.push_back(ScaledValue(rel, slot, a));
  }
  return row;
}

size_t AggregateRegistry::TotalBytes() const {
  size_t total = 0;
  for (const Relation& rel : relations_) total += rel.bytes + rel.tracker_bytes;
  return total;
}

void AggregateRegistry::PrimeLookupHint(int block, int slot) {
  lookup_hints[block % kHintBlocks] = {block, static_cast<size_t>(slot)};
}

int AggregateRegistry::FindSlot(int block, const Row& key) const {
  const Relation& rel = relations_[block];
  LookupHint& hint = lookup_hints[block % kHintBlocks];
  if (hint.block == block && hint.slot < rel.slots.size() &&
      RowEq()(*rel.slots[hint.slot].key, key)) {
    return static_cast<int>(hint.slot);
  }
  const auto it = rel.index.find(key);
  if (it == rel.index.end()) return -1;
  hint = {block, static_cast<size_t>(it->second)};
  return it->second;
}

Value AggregateRegistry::Lookup(int block, int col, const Row& key) const {
  const Relation& rel = relations_[block];
  if (col < rel.num_keys) {
    return col < static_cast<int>(key.size()) ? key[col] : Value::Null();
  }
  const int slot = FindSlot(block, key);
  if (slot < 0) return Value::Null();
  return ScaledValue(rel, slot, static_cast<size_t>(col - rel.num_keys));
}

Value AggregateRegistry::LookupTrial(int block, int col, const Row& key,
                                     int trial) const {
  const Relation& rel = relations_[block];
  if (col < rel.num_keys) {
    return col < static_cast<int>(key.size()) ? key[col] : Value::Null();
  }
  const int slot = FindSlot(block, key);
  if (slot < 0) return Value::Null();
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (a >= rel.linear.size() || trial < 0 || trial >= num_trials_) {
    return ScaledValue(rel, slot, a);
  }
  return Value::Double(Replicas(rel, slot, a)[trial] * ColScale(rel, a));
}

void AggregateRegistry::LookupTrials(int block, int col, const Row& key,
                                     int num_trials, Value* out) const {
  const Relation& rel = relations_[block];
  if (col < rel.num_keys) {
    const Value v =
        col < static_cast<int>(key.size()) ? key[col] : Value::Null();
    for (int t = 0; t < num_trials; ++t) out[t] = v;
    return;
  }
  const int slot = FindSlot(block, key);
  if (slot < 0) {
    for (int t = 0; t < num_trials; ++t) out[t] = Value::Null();
    return;
  }
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  // Trials past the replicas fall back to the (re-scaled) main value,
  // exactly like LookupTrial.
  const Value fallback = ScaledValue(rel, slot, a);
  int t = 0;
  if (a < rel.linear.size()) {
    const double* replicas = Replicas(rel, slot, a);
    const double s = ColScale(rel, a);
    for (; t < std::min(num_trials, num_trials_); ++t) {
      out[t] = Value::Double(replicas[t] * s);
    }
  }
  for (; t < num_trials; ++t) out[t] = fallback;
}

ErrorEstimate AggregateRegistry::Estimate(int block, int col, int slot) const {
  const Relation& rel = relations_[block];
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  assert(col >= rel.num_keys && a < rel.linear.size());
  const Value v = ScaledValue(rel, slot, a);
  const double value = v.is_null() ? 0.0 : v.AsDouble();
  const double s = ColScale(rel, a);
  const double* replicas = Replicas(rel, slot, a);
  if (rel.slots[slot].analytic) {
    const double sd = replicas[num_trials_ + kAnalyticSd];
    if (sd < 0.0) return EstimateFromStddev(value, sd);  // no closed form
    const double fpc =
        rel.scale > 1.0 ? std::sqrt(1.0 - 1.0 / rel.scale) : 0.0;
    return EstimateFromStddev(value, sd * s * fpc);
  }
  const size_t n = static_cast<size_t>(num_trials_);
  if (!rel.ranked) return EstimateError(value, replicas, n, s);
  // The stored ranks of the unscaled replicas, scaled: m_i >= 1, so they
  // are the ranks of the scaled replicas (see ReplicaRanks).
  const double* stored = replicas + num_trials_ + kTailSize;
  const ReplicaRanks ranks = {{stored[0] * s, stored[1] * s},
                              {stored[2] * s, stored[3] * s}};
  return EstimateError(value, replicas, n, s, ranks);
}

ErrorEstimate AggregateRegistry::Estimate(int block, int col,
                                         const Row& key) const {
  const Relation& rel = relations_[block];
  const int slot = col < rel.num_keys ? -1 : FindSlot(block, key);
  if (slot < 0 || col - rel.num_keys >= static_cast<int>(rel.linear.size())) {
    // A key column or a missing group: the value, with no replicas.
    const Value v = Lookup(block, col, key);
    return EstimateError(v.is_null() ? 0.0 : v.AsDouble(), {});
  }
  return Estimate(block, col, slot);
}

Interval AggregateRegistry::LookupRange(int block, int col,
                                        const Row& key) const {
  const Relation& rel = relations_[block];
  if (col < rel.num_keys) {
    if (col < static_cast<int>(key.size()) && key[col].is_numeric()) {
      return Interval::Point(key[col].AsDouble());
    }
    return Interval::Unbounded();
  }
  const int slot = FindSlot(block, key);
  if (slot < 0) return Interval::Unbounded();
  const Slot& group = rel.slots[slot];
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (group.range_disabled || a >= group.ranges.size()) {
    // Untracked blocks never feed classification; stay conservative if a
    // range is ever requested anyway.
    return Interval::Unbounded();
  }
  return group.ranges[a].current();
}

}  // namespace iolap
