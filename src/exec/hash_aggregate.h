#ifndef IOLAP_EXEC_HASH_AGGREGATE_H_
#define IOLAP_EXEC_HASH_AGGREGATE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bootstrap/trial_accumulator.h"
#include "core/value.h"
#include "plan/logical_plan.h"

namespace iolap {

/// The hash-grouped sketch state of an AGGREGATE operator (§4.2): one
/// TrialAccumulatorSet per (group, aggregate). Two instances exist per
/// aggregate block in the delta engine — the persistent sketch fed only by
/// near-deterministic tuples, and a per-batch scratch instance holding the
/// revocable contribution of the non-deterministic set.
///
/// Groups are kept in creation order, which is the order every walk over
/// them follows, with an open-addressing index from key to position.
///
/// The state keeps an undo log of its writes for failure recovery (§5.1).
/// Groups are copy-on-write nodes, and GetOrCreate — the single write gate —
/// records a group's old node (its pre-image) the first time a batch writes
/// it; the node is then shared, so the write clones it and the pre-image
/// stays intact. Seal() closes the writes since the last Seal into an Undo,
/// and Rollback(undo) puts the pre-images back and drops the groups created
/// since, which restores the exact earlier state, creation order included.
/// A group created in the batch needs no pre-image, so an instance whose
/// groups all belong to one batch (the scratch instance, a sketch cleared
/// every batch) records nothing.
class GroupedAggregateState {
 public:
  struct GroupCells {
    std::vector<TrialAccumulatorSet> aggs;
    /// Batch in which the group first appeared (for failure-recovery
    /// rollbacks and registry bookkeeping).
    int first_batch = 0;
    /// Batch of the group's last write, stamped by the write gate: the
    /// first write of a batch is the one that finds an older stamp.
    /// Publication re-materializes trial replicas only for touched groups.
    int last_touched = -1;
  };

  /// A group: its key (which never changes), the key's HashRow, its cells.
  struct Group {
    Row key;
    uint64_t hash = 0;
    std::shared_ptr<GroupCells> cells;

    HashedRowRef ref() const { return {key.data(), key.size(), hash}; }
  };

  /// The old node of a group that existed before the writes an Undo
  /// records. No state writes it while an Undo holds it.
  struct PreImage {
    uint32_t pos;
    std::shared_ptr<GroupCells> cells;
  };

  /// What the writes between two Seals changed: the state's group count and
  /// ByteSize() before them, and the pre-image of each group they wrote
  /// that existed before, in first-write order, with the pre-images'
  /// GroupBytes summed. The groups at positions num_groups and beyond were
  /// created by them. Together with the groups created, the pre-images
  /// name every group the writes touched.
  struct Undo {
    size_t num_groups = 0;
    size_t bytes = 0;
    std::vector<PreImage> pre_images;
    size_t pre_image_bytes = 0;
  };

  GroupedAggregateState(const std::vector<AggSpec>* specs, int num_trials)
      : specs_(specs), num_trials_(num_trials) {}

  /// Returns (creating if needed) the cells for `key`, ready to be written
  /// in `batch`: the first write of a batch to an existing group records
  /// its pre-image, a node shared with an Undo or another state is cloned
  /// first, and the group's last_touched becomes `batch`. Repeated calls
  /// without an intervening copy of the state return the same cells.
  /// `created` (optional) reports whether the group is new.
  GroupCells& GetOrCreate(const Row& key, int batch, bool* created = nullptr);

  /// Same, with a precomputed hash: the key is neither re-hashed nor
  /// copied unless the group is created.
  GroupCells& GetOrCreate(HashedRowRef key, int batch,
                          bool* created = nullptr);

  const GroupCells* Find(const Row& key) const;

  /// Find with a precomputed hash; never re-hashes.
  const GroupCells* Find(HashedRowRef key) const;

  /// Read-only view in creation order: every write goes through
  /// GetOrCreate.
  const std::deque<Group>& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }

  /// Drops every group and the open writes.
  void Clear();

  /// Closes the writes since the last Seal: folds their byte change into
  /// ByteSize() and returns what undoes them. O(groups written).
  Undo Seal();

  /// Restores the state from before the writes `undo` recorded. Undos apply
  /// newest first, and only with no open writes (Seal them first).
  /// O(groups written + groups created since).
  void Rollback(Undo undo);

  /// Approximate bytes of all groups as of the last Seal, a running count.
  size_t ByteSize() const { return bytes_; }

  /// One group's term of ByteSize().
  static size_t GroupBytes(const Row& key, const GroupCells& cells);

  /// Hash of a node's content: its first batch and its accumulator
  /// *results* (the bits a restore replays into publication, independent of
  /// accumulator representation).
  static uint64_t CellsHash(const GroupCells& cells);

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  /// The slot holding `key`'s position, or the empty slot it would take.
  /// Requires a non-empty index.
  size_t Probe(HashedRowRef key) const;
  /// Rebuilds the index with room for `min_groups` at most half full.
  void Rehash(size_t min_groups);
  /// Removes the last group from the index and from groups_.
  void PopGroup();
  /// The write gate's step for the existing group at `pos`.
  GroupCells& Write(uint32_t pos, int batch);

  const std::vector<AggSpec>* specs_ = nullptr;
  int num_trials_ = 0;
  /// A deque, so growing never moves the groups already stored.
  std::deque<Group> groups_;
  /// Open-addressing index (linear probing, power-of-two size, at most half
  /// full) of positions in groups_; kEmptySlot marks a free slot.
  std::vector<uint32_t> slots_;
  /// The writes since the last Seal (`bytes` is filled at Seal).
  Undo open_;
  size_t bytes_ = 0;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_HASH_AGGREGATE_H_
