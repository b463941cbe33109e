#include "exec/hash_aggregate.h"

#include <bit>

#include "common/hash.h"

namespace iolap {

namespace {

using GroupCells = GroupedAggregateState::GroupCells;

uint64_t GroupHash(const Row& key, const GroupCells& cells) {
  uint64_t g =
      HashCombine(HashRow(key), static_cast<uint64_t>(cells.first_batch));
  for (const TrialAccumulatorSet& acc : cells.aggs) {
    const Value main = acc.MainResult(1.0);
    g = HashCombine(g, main.is_null() ? 0x9e3779b97f4a7c15ULL : main.Hash());
    for (double trial : acc.TrialResults(1.0)) {
      g = HashCombine(g, std::bit_cast<uint64_t>(trial));
    }
    g = HashCombine(g, std::bit_cast<uint64_t>(acc.moment_count()));
    g = HashCombine(g, std::bit_cast<uint64_t>(acc.moment_variance()));
  }
  return Mix64(g);
}

// The write gate's copy-on-write step for an existing node. Nodes are
// shared only between states (the live sketch and checkpoints), and states
// are copied and written only on the engine's serial path, so use_count()
// is exact here.
GroupCells& Writable(std::shared_ptr<GroupCells>* node) {
  if (node->use_count() > 1) {
    const GroupCells& shared = **node;
    auto copy = std::make_shared<GroupCells>();
    copy->first_batch = shared.first_batch;
    copy->last_touched = shared.last_touched;
    copy->aggs.reserve(shared.aggs.size());
    for (const TrialAccumulatorSet& acc : shared.aggs) {
      copy->aggs.push_back(acc.Clone());
    }
    *node = std::move(copy);
  }
  GroupCells& cells = **node;
  cells.hash.reset();
  cells.bytes.reset();
  return cells;
}

}  // namespace

GroupedAggregateState::GroupCells& GroupedAggregateState::GetOrCreate(
    const Row& key, int batch, bool* created) {
  auto [it, inserted] = groups_.try_emplace(key);
  if (created != nullptr) *created = inserted;
  if (!inserted) return Writable(&it->second);
  it->second = std::make_shared<GroupCells>();
  GroupCells& cells = *it->second;
  cells.first_batch = batch;
  cells.aggs.reserve(specs_->size());
  for (const AggSpec& spec : *specs_) {
    cells.aggs.emplace_back(*spec.fn, num_trials_);
  }
  return cells;
}

GroupedAggregateState::GroupCells& GroupedAggregateState::GetOrCreate(
    const Row& key, uint64_t hash, int batch, bool* created) {
  auto it = groups_.find(HashedRowRef{&key, hash});
  if (it != groups_.end()) {
    if (created != nullptr) *created = false;
    return Writable(&it->second);
  }
  return GetOrCreate(key, batch, created);
}

const GroupedAggregateState::GroupCells* GroupedAggregateState::Find(
    const Row& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? nullptr : it->second.get();
}

const GroupedAggregateState::GroupCells* GroupedAggregateState::Find(
    const Row& key, uint64_t hash) const {
  auto it = groups_.find(HashedRowRef{&key, hash});
  return it == groups_.end() ? nullptr : it->second.get();
}

uint64_t GroupedAggregateState::ContentHash(bool use_cache) const {
  uint64_t sum = 0;
  for (const auto& [key, cells] : groups_) {
    if (!use_cache) {
      sum += GroupHash(key, *cells);
      continue;
    }
    if (!cells->hash) cells->hash = GroupHash(key, *cells);
    sum += *cells->hash;
  }
  return sum;
}

size_t GroupedAggregateState::ByteSize(
    std::unordered_set<const GroupCells*>* counted) const {
  size_t total = 0;
  for (const auto& [key, cells] : groups_) {
    if (counted != nullptr && !counted->insert(cells.get()).second) continue;
    if (!cells->bytes) {
      size_t bytes = RowByteSize(key) + sizeof(int);
      for (const TrialAccumulatorSet& acc : cells->aggs) {
        bytes += acc.ByteSize();
      }
      cells->bytes = bytes;
    }
    total += *cells->bytes;
  }
  return total;
}

}  // namespace iolap
