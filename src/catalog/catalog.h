#ifndef IOLAP_CATALOG_CATALOG_H_
#define IOLAP_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/table.h"

namespace iolap {

/// A registered base relation. `streamed` marks the relation the user asked
/// to process in an online fashion (paper §2): it is partitioned into
/// mini-batches and carries tuple uncertainty; non-streamed (dimension)
/// relations are read in entirety in the first batch and are fully
/// deterministic.
struct TableEntry {
  std::shared_ptr<const Table> table;
  bool streamed = false;
};

/// In-memory table catalog: the storage layer of the engine. Tables are
/// immutable once registered; queries reference them by name.
class Catalog {
 public:
  /// Registers `table` under `name`. AlreadyExists if the name is taken;
  /// InvalidArgument if a row's arity is not the schema's, or a value does
  /// not fit its column's type (FitsType: int64 and double fit either
  /// numeric column, NULL fits every column). Queries rely on it: the
  /// compiled programs read each column in its schema type's register kind.
  /// Rows that Table::AddRow checked as they came (Table::rows_fit) are
  /// not read again.
  Status RegisterTable(const std::string& name, Table table,
                       bool streamed = false);

  /// Registers a shared table (no copy).
  Status RegisterTable(const std::string& name,
                       std::shared_ptr<const Table> table, bool streamed);

  /// Marks an existing table as streamed / not streamed.
  Status SetStreamed(const std::string& name, bool streamed);

  Result<const TableEntry*> Find(const std::string& name) const;

  bool Has(const std::string& name) const { return tables_.count(name) > 0; }

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, TableEntry> tables_;
};

}  // namespace iolap

#endif  // IOLAP_CATALOG_CATALOG_H_
