#include "catalog/catalog.h"

#include <algorithm>

namespace autoview {

Status Catalog::AddTable(TableSchema schema) {
  const std::string name = schema.name();
  MutexLock lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  tables_.emplace(name, std::move(schema));
  return Status::OK();
}

Status Catalog::RemoveTable(const std::string& table) {
  MutexLock lock(mu_);
  if (tables_.erase(table) == 0) {
    return Status::NotFound("no such table: " + table);
  }
  stats_.erase(table);
  return Status::OK();
}

Status Catalog::SetStats(const std::string& table, TableStats stats) {
  MutexLock lock(mu_);
  if (!tables_.count(table)) {
    return Status::NotFound("no such table: " + table);
  }
  stats_[table] = std::move(stats);
  return Status::OK();
}

Result<const TableSchema*> Catalog::GetTable(std::string_view table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + std::string(table));
  }
  return &it->second;
}

Result<SharedColumns> Catalog::GetColumns(std::string_view table) const {
  MutexLock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + std::string(table));
  }
  return it->second.shared_columns();
}

const TableStats& Catalog::GetStats(std::string_view table) const {
  MutexLock lock(mu_);
  auto it = stats_.find(table);
  return it == stats_.end() ? empty_stats_ : it->second;
}

bool Catalog::HasTable(std::string_view table) const {
  MutexLock lock(mu_);
  return tables_.find(table) != tables_.end();
}

size_t Catalog::num_tables() const {
  MutexLock lock(mu_);
  return tables_.size();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  {
    MutexLock lock(mu_);
    names.reserve(tables_.size());
    for (const auto& [name, _] : tables_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace autoview
