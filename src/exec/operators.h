#ifndef IOLAP_EXEC_OPERATORS_H_
#define IOLAP_EXEC_OPERATORS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/batch.h"

namespace iolap {

/// Append-only cache of rows indexed by an equi-join key — the state a JOIN
/// operator keeps for one of its sides (§4.2: "JOIN constructs its state by
/// augmenting its state from the previous batch with all its input tuples
/// ... without tuple uncertainty").
///
/// Rollback support: appends are logged in order, so failure recovery can
/// truncate back to a per-batch watermark without cloning the cache.
class InputCache {
 public:
  /// `key_cols` are the columns of the cached rows that form the join key.
  explicit InputCache(std::vector<int> key_cols)
      : key_cols_(std::move(key_cols)) {}

  void Append(ExecRow row);

  /// Row positions whose key equals `key` (empty vector if none).
  const std::vector<uint32_t>& Matches(const Row& key) const;

  const ExecRow& row(uint32_t pos) const { return rows_[pos]; }
  size_t size() const { return rows_.size(); }

  /// Current append watermark (rows_ size), recorded per batch.
  size_t watermark() const { return rows_.size(); }

  /// Drops rows appended after `watermark` (failure recovery).
  void TruncateTo(size_t watermark);

  size_t ByteSize() const { return byte_size_; }

  Row KeyOf(const ExecRow& row) const;

 private:
  std::vector<int> key_cols_;
  std::vector<ExecRow> rows_;
  std::unordered_map<Row, std::vector<uint32_t>, RowHash, RowEq> index_;
  size_t byte_size_ = 0;
};

/// One step of the left-deep incremental multi-way join: joins the delta of
/// the prefix (inputs 0..k-1 combined) with input k, maintaining
///   Δ(P ⋈ I) = ΔP ⋈ I_new ∪ P_old ⋈ ΔI
/// where I_new includes this batch's ΔI. The step owns input k's cache and,
/// when input k can still grow (`input_grows`), the prefix cache needed for
/// the P_old ⋈ ΔI term — matching the paper's rule that a join side is
/// cached only if the *other* side has tuple uncertainty.
class JoinStep {
 public:
  JoinStep(std::vector<int> prefix_key_cols, std::vector<int> input_key_cols,
           bool input_grows);

  /// Processes one batch: `prefix_delta` are new prefix rows, `input_delta`
  /// new input-k rows. Appends the resulting new joined rows to `out`.
  void ProcessBatch(const RowBatch& prefix_delta, const RowBatch& input_delta,
                    RowBatch* out);

  /// Probes input k's cache with a prefix row's key; returns match count.
  /// Used by the OPT1-only path to charge the cost of re-deriving a tuple
  /// through the join pipeline.
  size_t ProbeCount(const ExecRow& prefix_row) const;

  struct Watermark {
    size_t input = 0;
    size_t prefix = 0;
  };
  Watermark watermark() const;
  void TruncateTo(const Watermark& mark);

  size_t StateBytes() const;

 private:
  InputCache input_cache_;
  /// Keyed by the prefix's join columns: its KeyOf is a prefix row's key,
  /// also when the cache is not kept.
  InputCache prefix_cache_;
  bool keep_prefix_;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_OPERATORS_H_
