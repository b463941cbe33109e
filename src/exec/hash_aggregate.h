#ifndef IOLAP_EXEC_HASH_AGGREGATE_H_
#define IOLAP_EXEC_HASH_AGGREGATE_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
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
/// Groups are copy-on-write nodes: copying a state (a checkpoint capture or
/// restore) copies pointers, and a node is cloned only when GetOrCreate —
/// the single write gate — finds it still shared with another state.
class GroupedAggregateState {
 public:
  struct GroupCells {
    std::vector<TrialAccumulatorSet> aggs;
    /// Batch in which the group first appeared (for failure-recovery
    /// rollbacks and registry bookkeeping).
    int first_batch = 0;
    /// Batch in which the group last received a contribution. Publication
    /// re-materializes trial replicas only for touched groups.
    int last_touched = -1;
    /// Values derived from the node's content and its key (a node never
    /// changes key), computed on demand and reset by every GetOrCreate:
    /// the group's term of ContentHash and of ByteSize.
    mutable std::optional<uint64_t> hash;
    mutable std::optional<size_t> bytes;
  };

  using GroupMap =
      std::unordered_map<Row, std::shared_ptr<GroupCells>, RowHash, RowEq>;

  /// Default instance usable only as an assignment target (checkpoints).
  GroupedAggregateState() = default;

  GroupedAggregateState(const std::vector<AggSpec>* specs, int num_trials)
      : specs_(specs), num_trials_(num_trials) {}

  /// Returns (creating if needed) the cells for `key`, ready to be written:
  /// a node shared with another state is cloned first, and the node's
  /// cached hash and size are reset. Repeated calls without an intervening
  /// copy of the state return the same cells. `created` (optional) reports
  /// whether the group is new.
  GroupCells& GetOrCreate(const Row& key, int batch, bool* created = nullptr);

  /// Same, with a precomputed hash: probes via heterogeneous lookup so the
  /// key is neither re-hashed nor copied. Only group *creation* (the rare
  /// path) builds a Row and re-hashes it, because try_emplace cannot take
  /// a caller-supplied hash.
  GroupCells& GetOrCreate(HashedRowRef key, int batch,
                          bool* created = nullptr);

  const GroupCells* Find(const Row& key) const;

  /// Find with a precomputed hash; never re-hashes.
  const GroupCells* Find(HashedRowRef key) const;

  /// Pre-sizes the bucket array for `expected_new_groups` more groups.
  void Reserve(size_t expected_new_groups) {
    groups_.reserve(groups_.size() + expected_new_groups);
  }

  /// Read-only view: every write goes through GetOrCreate.
  const GroupMap& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }

  void Clear() { groups_.clear(); }

  /// Order-insensitive content hash: a wrapping sum of per-group hashes
  /// over the key, first batch and accumulator *results* (the bits a
  /// restore replays into publication, independent of accumulator
  /// representation). With `use_cache`, only nodes written since they
  /// were last hashed are rehashed; without, every group is rehashed from
  /// content and no cache is read or written.
  uint64_t ContentHash(bool use_cache) const;

  /// Approximate bytes: the sum of the groups' sizes, re-measuring only
  /// nodes written since they were last measured. With `counted`, nodes
  /// already in the set are skipped and the rest are added to it, so a node
  /// shared by several states is counted once across them.
  size_t ByteSize(
      std::unordered_set<const GroupCells*>* counted = nullptr) const;

 private:
  const std::vector<AggSpec>* specs_ = nullptr;
  int num_trials_ = 0;
  GroupMap groups_;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_HASH_AGGREGATE_H_
