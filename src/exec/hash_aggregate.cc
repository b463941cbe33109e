#include "exec/hash_aggregate.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"

namespace iolap {

namespace {

using GroupCells = GroupedAggregateState::GroupCells;

// The write gate's copy-on-write step for an existing node. Nodes are
// shared only between a state and its undo records (or a copy of the
// state), and states are written only on the engine's serial path, so
// use_count() is exact here.
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
  return **node;
}

}  // namespace

size_t GroupedAggregateState::Probe(HashedRowRef key) const {
  const size_t mask = slots_.size() - 1;
  size_t s = key.hash & mask;
  while (slots_[s] != kEmptySlot) {
    const Group& g = groups_[slots_[s]];
    if (g.hash == key.hash &&
        RowEq::Equal(g.key.data(), g.key.size(), key.values, key.size)) {
      return s;
    }
    s = (s + 1) & mask;
  }
  return s;
}

void GroupedAggregateState::Rehash(size_t min_groups) {
  size_t size = 16;
  while (size < 2 * min_groups) size *= 2;
  if (size <= slots_.size()) return;
  slots_.assign(size, kEmptySlot);
  const size_t mask = size - 1;
  for (size_t pos = 0; pos < groups_.size(); ++pos) {
    size_t s = groups_[pos].hash & mask;
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(pos);
  }
}

void GroupedAggregateState::PopGroup() {
  const size_t mask = slots_.size() - 1;
  const uint32_t pos = static_cast<uint32_t>(groups_.size() - 1);
  size_t hole = groups_[pos].hash & mask;
  while (slots_[hole] != pos) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole unless the hole lies before its home slot.
  for (size_t s = (hole + 1) & mask; slots_[s] != kEmptySlot;
       s = (s + 1) & mask) {
    const size_t home = groups_[slots_[s]].hash & mask;
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      slots_[hole] = slots_[s];
      hole = s;
    }
  }
  slots_[hole] = kEmptySlot;
  groups_.pop_back();
}

GroupedAggregateState::GroupCells& GroupedAggregateState::Write(uint32_t pos,
                                                               int batch) {
  std::shared_ptr<GroupCells>& node = groups_[pos].cells;
  if (node->last_touched != batch) open_.pre_images.push_back({pos, node});
  GroupCells& cells = Writable(&node);
  cells.last_touched = batch;
  return cells;
}

GroupedAggregateState::GroupCells& GroupedAggregateState::GetOrCreate(
    const Row& key, int batch, bool* created) {
  return GetOrCreate(HashedRowRef{key.data(), key.size(), HashRow(key)}, batch,
                     created);
}

GroupedAggregateState::GroupCells& GroupedAggregateState::GetOrCreate(
    HashedRowRef key, int batch, bool* created) {
  if (2 * (groups_.size() + 1) > slots_.size()) Rehash(groups_.size() + 1);
  const size_t s = Probe(key);
  if (created != nullptr) *created = slots_[s] == kEmptySlot;
  if (slots_[s] != kEmptySlot) return Write(slots_[s], batch);
  slots_[s] = static_cast<uint32_t>(groups_.size());
  auto cells = std::make_shared<GroupCells>();
  cells->first_batch = batch;
  cells->last_touched = batch;
  cells->aggs.reserve(specs_->size());
  for (const AggSpec& spec : *specs_) {
    cells->aggs.emplace_back(*spec.fn, num_trials_);
  }
  groups_.push_back(
      {Row(key.values, key.values + key.size), key.hash, std::move(cells)});
  return *groups_.back().cells;
}

const GroupedAggregateState::GroupCells* GroupedAggregateState::Find(
    const Row& key) const {
  return Find(HashedRowRef{key.data(), key.size(), HashRow(key)});
}

const GroupedAggregateState::GroupCells* GroupedAggregateState::Find(
    HashedRowRef key) const {
  if (slots_.empty()) return nullptr;
  const uint32_t pos = slots_[Probe(key)];
  return pos == kEmptySlot ? nullptr : groups_[pos].cells.get();
}

void GroupedAggregateState::Clear() {
  groups_.clear();
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  open_ = Undo{};
  bytes_ = 0;
}

GroupedAggregateState::Undo GroupedAggregateState::Seal() {
  Undo undo = std::move(open_);
  undo.bytes = bytes_;
  for (const PreImage& pre : undo.pre_images) {
    const Group& g = groups_[pre.pos];
    undo.pre_image_bytes += GroupBytes(g.key, *pre.cells);
    bytes_ += GroupBytes(g.key, *g.cells);
  }
  bytes_ -= undo.pre_image_bytes;
  for (size_t pos = undo.num_groups; pos < groups_.size(); ++pos) {
    bytes_ += GroupBytes(groups_[pos].key, *groups_[pos].cells);
  }
  open_ = Undo{};
  open_.num_groups = groups_.size();
  return undo;
}

void GroupedAggregateState::Rollback(Undo undo) {
  for (PreImage& pre : undo.pre_images) {
    groups_[pre.pos].cells = std::move(pre.cells);
  }
  while (groups_.size() > undo.num_groups) PopGroup();
  bytes_ = undo.bytes;
  open_ = Undo{};
  open_.num_groups = groups_.size();
}

size_t GroupedAggregateState::GroupBytes(const Row& key,
                                         const GroupCells& cells) {
  size_t bytes = RowByteSize(key) + sizeof(int);
  for (const TrialAccumulatorSet& acc : cells.aggs) bytes += acc.ByteSize();
  return bytes;
}

uint64_t GroupedAggregateState::CellsHash(const GroupCells& cells) {
  uint64_t g = HashCombine(0, static_cast<uint64_t>(cells.first_batch));
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

}  // namespace iolap
