#include "iolap/aggregate_registry.h"

#include <algorithm>
#include <atomic>
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

/// Source of globally unique memo epochs (see Relation::memo_epoch). Starts
/// at 1 so a default-initialized thread_local memo (epoch 0) never matches.
uint64_t NextMemoEpoch() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// An entry's share of RelationBytes, without its key.
size_t ValueBytes(const std::vector<Value>& main,
                  const std::vector<std::vector<double>>& trials) {
  size_t total = 0;
  for (const Value& v : main) total += v.ByteSize();
  for (const auto& replicas : trials) total += replicas.size() * sizeof(double);
  return total;
}

size_t TrackerBytes(const std::vector<VariationRangeTracker>& ranges) {
  size_t total = 0;
  for (const VariationRangeTracker& tracker : ranges) {
    total += tracker.ByteSize();
  }
  return total;
}

}  // namespace

AggregateRegistry::AggregateRegistry(const QueryPlan* plan, double slack)
    : slack_(slack) {
  relations_.resize(plan->blocks.size());
  for (size_t b = 0; b < plan->blocks.size(); ++b) {
    const Block& block = plan->blocks[b];
    relations_[b].memo_epoch = NextMemoEpoch();
    relations_[b].num_keys = static_cast<int>(block.group_by.size());
    relations_[b].linear.reserve(block.aggs.size());
    for (const AggSpec& agg : block.aggs) {
      relations_[b].linear.push_back(agg.fn->scales_linearly);
    }
  }
}

void AggregateRegistry::SetBlockScale(int block, double scale) {
  relations_[block].scale = scale;
}

void AggregateRegistry::MarkLive(Relation& rel, LiveGroup group, int batch) {
  if (rel.live_batch != batch) {
    rel.live.clear();
    rel.live_batch = batch;
  }
  rel.live.push_back(group);
}

void AggregateRegistry::CheckRanges(Relation& rel, const Row& key,
                                    Entry& entry, int batch,
                                    PublishResult* result) {
  for (size_t a = 0; a < entry.ranges.size(); ++a) {
    const double s = ColScale(rel, a);
    const double v =
        (entry.main[a].is_null() ? 0.0 : entry.main[a].AsDouble()) * s;
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
      update = entry.ranges[a].InjectInconsistency();
    }
    if (update.ok) {
      // The replica envelope is linear in the scale (s > 0 always).
      update = entry.ranges[a].UpdateEnvelope(v, entry.env_lo[a] * s,
                                              entry.env_hi[a] * s,
                                              entry.env_sd[a] * s);
    }
    if (!update.ok) {
      // The failure invalidates pruning decisions that constrained this
      // value: request recovery. A value that keeps betraying its
      // obligations stops being classified on entirely.
      if (++rel.failure_counts[key] >= 3) entry.range_disabled = true;
      result->ok = false;
      // Convert the tracker's local history index to a global batch.
      const int global = update.last_consistent_batch < 0
                             ? entry.first_batch - 1
                             : entry.first_batch + update.last_consistent_batch;
      const int target = global < 0 ? -1 : global;
      if (result->rollback_to == -1 || target < result->rollback_to) {
        result->rollback_to = target;
      }
      if (target < 0) result->rollback_to = -1;
    }
  }
}

AggregateRegistry::PublishResult AggregateRegistry::Publish(
    int block, const Row& key, int batch, std::vector<Value> main,
    std::vector<std::vector<double>> trials, bool track_ranges,
    const std::vector<double>* analytic_sd) {
  Relation& rel = relations_[block];
  auto [it, inserted] = rel.entries.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) {
    entry.first_batch = batch;
    if (track_ranges) {
      entry.ranges.assign(main.size(), VariationRangeTracker(slack_));
    }
    auto fc = rel.failure_counts.find(key);
    if (fc != rel.failure_counts.end() && fc->second >= 3) {
      entry.range_disabled = true;
    }
    rel.bytes += RowByteSize(key);
  } else {
    rel.bytes -= ValueBytes(entry.main, entry.trials);
  }
  MarkLive(rel, {&it->first, &entry}, batch);
  rel.bytes += ValueBytes(main, trials);
  entry.main = std::move(main);
  entry.trials = std::move(trials);
  if (analytic_sd != nullptr) {
    entry.analytic_sd = *analytic_sd;
  } else {
    entry.analytic_sd.clear();
  }
  // Unscaled replica envelopes for later Refresh()es.
  const size_t num_aggs = entry.main.size();
  entry.env_lo.assign(num_aggs, 0.0);
  entry.env_hi.assign(num_aggs, 0.0);
  entry.env_sd.assign(num_aggs, 0.0);
  for (size_t a = 0; a < num_aggs; ++a) {
    const double v = entry.main[a].is_null() ? 0.0 : entry.main[a].AsDouble();
    if (analytic_sd != nullptr) {
      // Closed-form envelope: ±2σ around the estimate (σ < 0 = no closed
      // form: degenerate point envelope, i.e. conservative elsewhere).
      const double sd = std::max(0.0, (*analytic_sd)[a]);
      entry.env_lo[a] = v - 2.0 * sd;
      entry.env_hi[a] = v + 2.0 * sd;
      entry.env_sd[a] = sd;
      continue;
    }
    double lo = v;
    double hi = v;
    double sum = 0.0;
    const auto& t = entry.trials[a];
    for (double x : t) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      sum += x;
    }
    double sd = 0.0;
    if (t.size() > 1) {
      const double mean = sum / t.size();
      double ss = 0.0;
      for (double x : t) ss += (x - mean) * (x - mean);
      sd = std::sqrt(ss / (t.size() - 1));
    }
    entry.env_lo[a] = lo;
    entry.env_hi[a] = hi;
    entry.env_sd[a] = sd;
  }
  PublishResult result;
  result.created = inserted;
  // The trackers created above, plus the snapshot CheckRanges folds.
  const size_t trackers_before = inserted ? 0 : TrackerBytes(entry.ranges);
  if (track_ranges && !entry.range_disabled) {
    CheckRanges(rel, key, entry, batch, &result);
  }
  rel.tracker_bytes += TrackerBytes(entry.ranges) - trackers_before;
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
    int block, const Row& key, int batch, bool track_ranges) {
  Relation& rel = relations_[block];
  auto it = rel.entries.find(key);
  PublishResult result;
  if (it == rel.entries.end()) {
    result.missing = true;
    return result;
  }
  Entry& entry = it->second;
  MarkLive(rel, {&it->first, &entry}, batch);
  if (track_ranges && !entry.range_disabled) {
    const size_t trackers_before = TrackerBytes(entry.ranges);
    CheckRanges(rel, key, entry, batch, &result);
    rel.tracker_bytes += TrackerBytes(entry.ranges) - trackers_before;
  }
  return result;
}

VariationRangeTracker* AggregateRegistry::TrackerFor(int block, int col,
                                                     const Row& key) {
  Relation& rel = relations_[block];
  if (col < rel.num_keys) return nullptr;  // key columns are deterministic
  auto it = rel.entries.find(key);
  if (it == rel.entries.end() || it->second.range_disabled) return nullptr;
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (a >= it->second.ranges.size()) return nullptr;
  return &it->second.ranges[a];
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
    rel.memo_epoch = NextMemoEpoch();  // erase invalidates memoized pointers
    rel.live.clear();
    rel.live_batch = -1;
    for (auto it = rel.entries.begin(); it != rel.entries.end();) {
      Entry& entry = it->second;
      rel.tracker_bytes -= TrackerBytes(entry.ranges);
      if (entry.first_batch > batch) {
        rel.bytes -= RowByteSize(it->first);
        rel.bytes -= ValueBytes(entry.main, entry.trials);
        it = rel.entries.erase(it);
        continue;
      }
      for (VariationRangeTracker& tracker : entry.ranges) {
        tracker.RecoverTo(batch - entry.first_batch, freeze_updates);
      }
      rel.tracker_bytes += TrackerBytes(entry.ranges);
      ++it;
    }
  }
}

void AggregateRegistry::ScaleSlack(double factor) {
  slack_ *= factor;
  for (Relation& rel : relations_) {
    for (auto& [key, entry] : rel.entries) {
      for (VariationRangeTracker& tracker : entry.ranges) {
        tracker.ScaleSlack(factor);
      }
    }
  }
}

size_t AggregateRegistry::GroupCount(int block) const {
  return relations_[block].entries.size();
}

const std::vector<AggregateRegistry::LiveGroup>& AggregateRegistry::LiveGroups(
    int block, int batch) const {
  static const std::vector<LiveGroup> kNone;
  const Relation& rel = relations_[block];
  return rel.live_batch == batch ? rel.live : kNone;
}

Value AggregateRegistry::ScaledValue(const Relation& rel, const Entry& entry,
                                     size_t a) const {
  if (a >= entry.main.size() || entry.main[a].is_null()) return Value::Null();
  const double s = ColScale(rel, a);
  return s == 1.0 ? entry.main[a] : Value::Double(entry.main[a].AsDouble() * s);
}

Row AggregateRegistry::OutputRow(int block, const LiveGroup& group) const {
  const Relation& rel = relations_[block];
  Row row;
  row.reserve(group.key->size() + rel.linear.size());
  row.assign(group.key->begin(), group.key->end());
  for (size_t a = 0; a < rel.linear.size(); ++a) {
    row.push_back(group.entry == nullptr ? Value::Null()
                                         : ScaledValue(rel, *group.entry, a));
  }
  return row;
}

Row AggregateRegistry::OutputRow(int block, const Row& key) const {
  return OutputRow(block, LiveGroup{&key, FindEntry(block, key)});
}

size_t AggregateRegistry::TotalBytes() const {
  size_t total = 0;
  for (const Relation& rel : relations_) total += rel.bytes + rel.tracker_bytes;
  return total;
}

const AggregateRegistry::Entry* AggregateRegistry::FindEntry(
    int block, const Row& key) const {
  // Single-slot lookup memo: the delta engine resolves the same group once
  // per bootstrap trial in tight loops. thread_local (rather than a mutable
  // member) so concurrent const lookups from pool workers stay race-free;
  // the relation's memo_epoch guards against cross-relation aliasing and
  // against entries erased by RollbackTo.
  // The memo points at the entry's key in the map instead of copying it.
  struct Memo {
    uint64_t epoch = 0;
    const Row* key = nullptr;
    const Entry* entry = nullptr;
  };
  thread_local Memo memo;
  const Relation& rel = relations_[block];
  if (memo.epoch == rel.memo_epoch && memo.entry != nullptr &&
      RowEq()(*memo.key, key)) {
    return memo.entry;
  }
  auto it = rel.entries.find(key);
  if (it == rel.entries.end()) return nullptr;
  memo.epoch = rel.memo_epoch;
  memo.key = &it->first;
  memo.entry = &it->second;
  return memo.entry;
}

Value AggregateRegistry::Lookup(int block, int col, const Row& key) const {
  const Relation& rel = relations_[block];
  if (col < rel.num_keys) {
    return col < static_cast<int>(key.size()) ? key[col] : Value::Null();
  }
  const Entry* entry = FindEntry(block, key);
  if (entry == nullptr) return Value::Null();
  return ScaledValue(rel, *entry, static_cast<size_t>(col - rel.num_keys));
}

Value AggregateRegistry::LookupTrial(int block, int col, const Row& key,
                                     int trial) const {
  const Relation& rel = relations_[block];
  if (col < rel.num_keys) {
    return col < static_cast<int>(key.size()) ? key[col] : Value::Null();
  }
  const Entry* entry = FindEntry(block, key);
  if (entry == nullptr) return Value::Null();
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (a >= entry->trials.size() ||
      static_cast<size_t>(trial) >= entry->trials[a].size()) {
    return Lookup(block, col, key);
  }
  return Value::Double(entry->trials[a][trial] * ColScale(rel, a));
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
  const Entry* entry = FindEntry(block, key);
  if (entry == nullptr) {
    for (int t = 0; t < num_trials; ++t) out[t] = Value::Null();
    return;
  }
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  // Trials the replica vector does not cover fall back to the (re-scaled)
  // main value, exactly like LookupTrial.
  const Value fallback = ScaledValue(rel, *entry, a);
  if (a >= entry->trials.size()) {
    for (int t = 0; t < num_trials; ++t) out[t] = fallback;
    return;
  }
  const std::vector<double>& trials = entry->trials[a];
  const double s = ColScale(rel, a);
  const int covered =
      std::min(num_trials, static_cast<int>(trials.size()));
  for (int t = 0; t < covered; ++t) {
    out[t] = Value::Double(trials[t] * s);
  }
  for (int t = covered; t < num_trials; ++t) out[t] = fallback;
}

ErrorEstimate AggregateRegistry::Estimate(int block, int col,
                                         const LiveGroup& group) const {
  const Relation& rel = relations_[block];
  const Entry* entry = col < rel.num_keys ? nullptr : group.entry;
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (entry == nullptr || a >= entry->main.size()) {
    // A key column or a missing group: the value, with no replicas.
    const Value v = Lookup(block, col, *group.key);
    return EstimateError(v.is_null() ? 0.0 : v.AsDouble(), {});
  }
  const Value v = ScaledValue(rel, *entry, a);
  const double value = v.is_null() ? 0.0 : v.AsDouble();
  const double s = ColScale(rel, a);
  if (a < entry->analytic_sd.size()) {
    const double sd = entry->analytic_sd[a];
    if (sd < 0.0) return EstimateFromStddev(value, sd);  // no closed form
    const double fpc =
        rel.scale > 1.0 ? std::sqrt(1.0 - 1.0 / rel.scale) : 0.0;
    return EstimateFromStddev(value, sd * s * fpc);
  }
  if (a >= entry->trials.size()) return EstimateError(value, {});
  return EstimateError(value, entry->trials[a], s);
}

ErrorEstimate AggregateRegistry::Estimate(int block, int col,
                                         const Row& key) const {
  return Estimate(block, col, LiveGroup{&key, FindEntry(block, key)});
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
  const Entry* entry = FindEntry(block, key);
  if (entry == nullptr || entry->range_disabled) return Interval::Unbounded();
  const size_t a = static_cast<size_t>(col - rel.num_keys);
  if (a >= entry->ranges.size()) {
    // Untracked blocks never feed classification; stay conservative if a
    // range is ever requested anyway.
    return Interval::Unbounded();
  }
  return entry->ranges[a].current();
}

}  // namespace iolap
