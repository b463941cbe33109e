#include "catalog/partitioner.h"

#include <algorithm>
#include <map>

#include "common/random.h"

namespace iolap {

namespace {

// Fisher-Yates shuffle of [0, n) driven by the library Rng.
std::vector<uint64_t> ShuffledIota(size_t n, Rng* rng) {
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t j = rng->NextBounded(i);
    std::swap(ids[i - 1], ids[j]);
  }
  return ids;
}

// Chops `ids` into `num_batches` nearly equal consecutive slices.
BatchLayout SliceIntoBatches(const std::vector<uint64_t>& ids,
                             size_t num_batches) {
  BatchLayout layout;
  layout.batches.resize(num_batches);
  const size_t n = ids.size();
  const size_t base = n / num_batches;
  const size_t extra = n % num_batches;
  size_t offset = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t size = base + (b < extra ? 1 : 0);
    layout.batches[b].assign(ids.begin() + offset, ids.begin() + offset + size);
    offset += size;
  }
  return layout;
}

BatchLayout BlockwisePartition(size_t num_rows, size_t num_batches,
                               size_t block_rows, Rng* rng) {
  if (block_rows == 0) block_rows = 1;
  const size_t num_blocks = (num_rows + block_rows - 1) / block_rows;
  std::vector<uint64_t> block_order = ShuffledIota(num_blocks, rng);
  std::vector<uint64_t> ids;
  ids.reserve(num_rows);
  for (uint64_t block : block_order) {
    const size_t begin = block * block_rows;
    const size_t end = std::min(num_rows, begin + block_rows);
    for (size_t r = begin; r < end; ++r) ids.push_back(r);
  }
  return SliceIntoBatches(ids, num_batches);
}

BatchLayout StratifiedPartition(const Table& table, size_t num_batches,
                                int stratify_column, Rng* rng) {
  // Bucket rows by stratum, shuffle within each stratum, then deal rows
  // round-robin so every batch receives a proportional share.
  std::map<std::string, std::vector<uint64_t>> strata;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    strata[table.row(r)[stratify_column].ToString()].push_back(r);
  }
  BatchLayout layout;
  layout.batches.resize(num_batches);
  for (auto& [key, ids] : strata) {
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng->NextBounded(i)]);
    }
    // Deal rows round-robin; a per-stratum random start keeps small strata
    // from all landing in batch 0.
    const size_t start = rng->NextBounded(num_batches);
    for (size_t i = 0; i < ids.size(); ++i) {
      layout.batches[(start + i) % num_batches].push_back(ids[i]);
    }
  }
  return layout;
}

}  // namespace

size_t BatchLayout::TotalRows() const {
  size_t total = 0;
  for (const auto& batch : batches) total += batch.size();
  return total;
}

Result<BatchLayout> PartitionIntoBatches(const Table& table,
                                         size_t num_batches,
                                         const PartitionOptions& options) {
  const size_t num_rows = table.num_rows();
  if (num_batches == 0) {
    return Status::InvalidArgument("num_batches must be positive");
  }
  if (num_rows == 0) {
    BatchLayout layout;
    layout.batches.resize(1);
    return layout;
  }
  num_batches = std::min(num_batches, num_rows);
  Rng rng(options.seed ^ 0x1015a9u);
  switch (options.scheme) {
    case PartitionScheme::kBlockwiseRandom:
      return BlockwisePartition(num_rows, num_batches, options.block_rows,
                                &rng);
    case PartitionScheme::kFullShuffle: {
      std::vector<uint64_t> ids = ShuffledIota(num_rows, &rng);
      return SliceIntoBatches(ids, num_batches);
    }
    case PartitionScheme::kStratified: {
      if (options.stratify_column < 0 ||
          static_cast<size_t>(options.stratify_column) >=
              table.schema().num_columns()) {
        return Status::InvalidArgument("stratify_column out of range");
      }
      return StratifiedPartition(table, num_batches, options.stratify_column,
                                 &rng);
    }
  }
  return Status::InvalidArgument("unknown partition scheme");
}

}  // namespace iolap
