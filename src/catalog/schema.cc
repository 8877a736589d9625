#include "catalog/schema.h"

#include <cmath>

namespace autoview {

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "Int";
    case ColumnType::kDouble:
      return "Double";
    case ColumnType::kString:
      return "String";
  }
  return "?";
}

std::optional<size_t> TableSchema::FindColumn(const std::string& column) const {
  const std::vector<ColumnSchema>& cols = *columns_;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == column) return i;
  }
  return std::nullopt;
}

double Histogram::total_count() const {
  double total = 0.0;
  for (double c : bucket_counts) total += c;
  return total;
}

double Histogram::EqualitySelectivity(double v, double distinct_count) const {
  const double total = total_count();
  if (total <= 0.0 || bucket_counts.empty()) return 0.0;
  if (v < lo || v > hi) return 0.0;
  const double width = (hi - lo) / static_cast<double>(bucket_counts.size());
  size_t bucket = width > 0
                      ? static_cast<size_t>((v - lo) / width)
                      : 0;
  if (bucket >= bucket_counts.size()) bucket = bucket_counts.size() - 1;
  // Assume distinct values spread evenly across buckets.
  const double distinct_per_bucket =
      std::max(1.0, distinct_count / static_cast<double>(bucket_counts.size()));
  return bucket_counts[bucket] / distinct_per_bucket / total;
}

double Histogram::LessThanSelectivity(double v) const {
  const double total = total_count();
  if (total <= 0.0 || bucket_counts.empty()) return 0.0;
  if (v <= lo) return 0.0;
  if (v > hi) return 1.0;
  const double width = (hi - lo) / static_cast<double>(bucket_counts.size());
  if (width <= 0.0) return 0.5;
  double count = 0.0;
  const double pos = (v - lo) / width;
  const size_t full = static_cast<size_t>(pos);
  for (size_t i = 0; i < full && i < bucket_counts.size(); ++i) {
    count += bucket_counts[i];
  }
  if (full < bucket_counts.size()) {
    count += bucket_counts[full] * (pos - static_cast<double>(full));
  }
  return count / total;
}

}  // namespace autoview
