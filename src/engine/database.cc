#include "engine/database.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace autoview {

Status Database::AddTable(TableSchema schema, std::vector<Row> rows) {
  for (const auto& row : rows) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("row width %zu != schema width %zu for table %s",
                    row.size(), schema.num_columns(), schema.name().c_str()));
    }
    for (size_t c = 0; c < row.size(); ++c) {
      const ColumnType want = schema.column(c).type;
      const ColumnType got = row[c].type();
      const bool numeric_ok =
          want == ColumnType::kDouble && got == ColumnType::kInt64;
      if (got != want && !numeric_ok) {
        return Status::TypeError(
            StrFormat("cell type mismatch in %s column %s",
                      schema.name().c_str(), schema.column(c).name.c_str()));
      }
    }
  }
  std::vector<OutputColumn> columns;
  for (const auto& col : schema.columns()) {
    columns.push_back({col.name, col.type});
  }
  Table table = Table::FromRows(std::move(columns), std::move(rows));
  const std::string name = schema.name();
  AV_RETURN_NOT_OK(catalog_.AddTable(std::move(schema)));
  Store(name, std::move(table));
  return Status::OK();
}

Status Database::AddMaterialized(const std::string& name, Table table) {
  std::vector<ColumnSchema> cols;
  for (const auto& col : table.columns) cols.push_back({col.name, col.type});
  AV_RETURN_NOT_OK(catalog_.AddTable(TableSchema(name, std::move(cols))));
  Store(name, std::move(table));
  return ComputeStats(name);
}

void Database::Store(const std::string& name, Table table) {
  // Sized outside the lock; the table is not shared yet.
  const uint64_t byte_size = table.ByteSize();
  MutexLock lock(mu_);
  tables_.emplace(name, StoredTable{std::move(table), byte_size});
}

Status Database::DropTable(const std::string& name) {
  {
    MutexLock lock(mu_);
    if (tables_.erase(name) == 0) {
      return Status::NotFound("no such table: " + name);
    }
  }
  return catalog_.RemoveTable(name);
}

Result<const Table*> Database::GetTable(const std::string& name,
                                        uint64_t* byte_size) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  if (byte_size != nullptr) *byte_size = it->second.byte_size;
  return &it->second.table;
}

Status Database::ComputeStats(const std::string& name, size_t buckets) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  const Table& table = it->second.table;
  TableStats stats;
  stats.row_count = table.num_rows();
  stats.byte_size = it->second.byte_size;
  stats.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    const Column& column = table.column(c);
    std::unordered_set<uint64_t> distinct;
    const bool numeric = table.columns[c].type != ColumnType::kString;
    double lo = 0, hi = 0;
    for (size_t r = 0; r < column.size(); ++r) {
      const CellRef cell = column.cell(r);
      distinct.insert(HashCell(cell));
      if (numeric) {
        const double v = cell.AsDouble();
        if (r == 0) {
          lo = hi = v;
        } else {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
    }
    cs.distinct_count = static_cast<double>(distinct.size());
    cs.min_value = lo;
    cs.max_value = hi;
    if (numeric && column.size() > 0) {
      cs.histogram.lo = lo;
      cs.histogram.hi = hi;
      cs.histogram.bucket_counts.assign(buckets, 0.0);
      const double width = (hi - lo) / static_cast<double>(buckets);
      for (size_t r = 0; r < column.size(); ++r) {
        size_t b = width > 0 ? static_cast<size_t>(
                                   (column.cell(r).AsDouble() - lo) / width)
                             : 0;
        if (b >= buckets) b = buckets - 1;
        cs.histogram.bucket_counts[b] += 1.0;
      }
    }
  }
  return catalog_.SetStats(name, std::move(stats));
}

Status Database::ComputeAllStats(size_t buckets) {
  std::vector<std::string> names;
  {
    MutexLock lock(mu_);
    names.reserve(tables_.size());
    for (const auto& [name, _] : tables_) names.push_back(name);
  }
  for (const auto& name : names) {
    AV_RETURN_NOT_OK(ComputeStats(name, buckets));
  }
  return Status::OK();
}

}  // namespace autoview
