#ifndef IOLAP_CORE_SCHEMA_H_
#define IOLAP_CORE_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/value.h"

namespace iolap {

/// A named, typed column.
struct Column {
  std::string name;
  ValueType type = ValueType::kNull;

  Column() = default;
  Column(std::string name_in, ValueType type_in)
      : name(std::move(name_in)), type(type_in) {}
};

/// An ordered list of columns describing a relation. Column names may be
/// qualified ("lineorder.quantity"); lookup matches on the qualified name
/// first, then on the unqualified suffix (erroring on ambiguity).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column column) { columns_.push_back(std::move(column)); }

  /// Whether `row` has one value per column and each value fits its
  /// column's type (FitsType).
  bool Fits(const Row& row) const {
    if (row.size() != columns_.size()) return false;
    for (size_t c = 0; c < row.size(); ++c) {
      if (!FitsType(row[c].type(), columns_[c].type)) return false;
    }
    return true;
  }

  /// Index of the column named `name`, resolving qualified and unqualified
  /// forms. NotFound if absent, InvalidArgument if ambiguous.
  Result<int> FindColumn(const std::string& name) const;

  /// True if some column matches `name` (including ambiguously).
  bool HasColumn(const std::string& name) const;

  /// Schema of `this` followed by `other` (join output shape).
  Schema Concat(const Schema& other) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace iolap

#endif  // IOLAP_CORE_SCHEMA_H_
