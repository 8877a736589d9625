#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace autoview {

/// \brief Column data types supported by the engine.
enum class ColumnType { kInt64, kDouble, kString };

/// Human-readable type name ("Int", "Double", "String") — the same
/// spelling the paper's schema-encoding feature uses (Fig. 7b).
const char* ColumnTypeName(ColumnType type);

/// \brief A single column definition.
struct ColumnSchema {
  std::string name;
  ColumnType type = ColumnType::kInt64;

  bool operator==(const ColumnSchema&) const = default;
};

/// \brief An immutable, shareable column list. Plan nodes that keep
/// their input's columns (scans of a table, filters, sorts, ...) hold
/// the same list instead of copying it.
using SharedColumns = std::shared_ptr<const std::vector<ColumnSchema>>;

/// \brief A table definition: name plus ordered columns.
///
/// The columns are immutable and shared: copying a schema, or handing
/// out columns(), never copies the column names.
class TableSchema {
 public:
  TableSchema() : TableSchema("", {}) {}
  TableSchema(std::string name, std::vector<ColumnSchema> columns)
      : name_(std::move(name)),
        columns_(std::make_shared<const std::vector<ColumnSchema>>(
            std::move(columns))) {}
  // Copy-only (a move would leave columns_ null): copying shares the
  // column list.
  TableSchema(const TableSchema&) = default;
  TableSchema& operator=(const TableSchema&) = default;

  const std::string& name() const { return name_; }
  const std::vector<ColumnSchema>& columns() const { return *columns_; }
  const SharedColumns& shared_columns() const { return columns_; }
  size_t num_columns() const { return columns_->size(); }

  /// Index of `column` or nullopt.
  std::optional<size_t> FindColumn(const std::string& column) const;

  const ColumnSchema& column(size_t i) const { return (*columns_)[i]; }

  bool operator==(const TableSchema& other) const {
    return name_ == other.name_ && *columns_ == *other.columns_;
  }

 private:
  std::string name_;
  SharedColumns columns_;  // never null
};

/// \brief Equi-width histogram over a numeric column's value range.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<double> bucket_counts;

  /// Fraction of values estimated to equal `v` assuming uniformity
  /// inside the containing bucket.
  double EqualitySelectivity(double v, double distinct_count) const;

  /// Fraction of values estimated to be < `v`.
  double LessThanSelectivity(double v) const;

  double total_count() const;
};

/// \brief Per-column statistics collected from loaded data.
struct ColumnStats {
  double distinct_count = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  double null_fraction = 0.0;
  Histogram histogram;
};

/// \brief Per-table statistics (the numerical features of §IV-A).
struct TableStats {
  uint64_t row_count = 0;
  uint64_t byte_size = 0;
  std::vector<ColumnStats> columns;  // parallel to TableSchema::columns()
};

}  // namespace autoview
