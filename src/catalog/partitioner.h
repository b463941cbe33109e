#ifndef IOLAP_CATALOG_PARTITIONER_H_
#define IOLAP_CATALOG_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/table.h"

namespace iolap {

/// How the streamed relation is split into mini-batches (paper §2).
enum class PartitionScheme {
  /// Default: rows are grouped into fixed-size blocks, block order is
  /// randomly shuffled, and consecutive blocks form batches. Matches the
  /// paper's block-wise randomness assumption.
  kBlockwiseRandom,
  /// Pre-processing tool for inputs whose block order correlates with
  /// query attributes: a full row-level random shuffle.
  kFullShuffle,
  /// Extension (paper §9): rows are stratified on a key column and each
  /// batch receives a proportional share of every stratum.
  kStratified,
};

struct PartitionOptions {
  PartitionScheme scheme = PartitionScheme::kBlockwiseRandom;
  /// Rows per block under kBlockwiseRandom.
  size_t block_rows = 64;
  /// Column index used as the stratum key under kStratified.
  int stratify_column = 0;
  uint64_t seed = 0;
};

/// The mini-batch layout of one streamed relation: batches[i] lists the
/// row ids (indices into the base table) that arrive in batch i. Every row
/// appears in exactly one batch.
struct BatchLayout {
  std::vector<std::vector<uint64_t>> batches;

  size_t TotalRows() const;
};

/// Splits `num_rows` (or the rows of `table`, for kStratified) into
/// `num_batches` randomized mini-batches. num_batches is clamped to
/// [1, num_rows] (empty input yields one empty batch).
Result<BatchLayout> PartitionIntoBatches(const Table& table,
                                         size_t num_batches,
                                         const PartitionOptions& options);

}  // namespace iolap

#endif  // IOLAP_CATALOG_PARTITIONER_H_
