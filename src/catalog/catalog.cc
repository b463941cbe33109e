#include "catalog/catalog.h"

namespace iolap {

Status Catalog::RegisterTable(const std::string& name, Table table,
                              bool streamed) {
  return RegisterTable(name, std::make_shared<const Table>(std::move(table)),
                       streamed);
}

Status Catalog::RegisterTable(const std::string& name,
                              std::shared_ptr<const Table> table,
                              bool streamed) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  // A table filled only through AddRow was checked as it was filled.
  const std::vector<Row>& rows = table->rows();
  for (size_t r = 0; r < rows.size() && !table->rows_fit(); ++r) {
    if (!table->schema().Fits(rows[r])) {
      return Status::InvalidArgument(
          "table " + name + " row " + std::to_string(r) + " " +
          RowToString(rows[r]) + " does not fit the schema " +
          table->schema().ToString());
    }
  }
  tables_[name] = TableEntry{std::move(table), streamed};
  return Status::OK();
}

Status Catalog::SetStreamed(const std::string& name, bool streamed) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  it->second.streamed = streamed;
  return Status::OK();
}

Result<const TableEntry*> Catalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

}  // namespace iolap
