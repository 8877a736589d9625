#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>

#include "catalog/schema.h"

namespace autoview {

/// \brief One cell read in place: an int64, a double, or a string that
/// views bytes its owner keeps alive (a Value, or a Column's buffer).
struct CellRef {
  ColumnType type = ColumnType::kInt64;
  union {
    int64_t i = 0;  ///< kInt64
    double d;       ///< kDouble
  };
  std::string_view s;  ///< kString

  bool is_string() const { return type == ColumnType::kString; }
  double AsDouble() const {
    return type == ColumnType::kInt64 ? static_cast<double>(i) : d;
  }
};

/// Three-way comparison of two cells. Two ints compare exactly; an int
/// and a double compare as doubles; strings lexicographically. Cross
/// string/number comparison orders strings last.
inline int CompareCells(const CellRef& a, const CellRef& b) {
  const bool a_str = a.is_string();
  const bool b_str = b.is_string();
  if (a_str != b_str) return a_str ? 1 : -1;
  if (a_str) return a.s < b.s ? -1 : (a.s == b.s ? 0 : 1);
  if (a.type == ColumnType::kInt64 && b.type == ColumnType::kInt64) {
    // Exact: ints past 2^53 that round to the same double stay apart.
    return a.i < b.i ? -1 : (a.i == b.i ? 0 : 1);
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

/// HashCell() of an int cell holding `v`.
inline uint64_t HashInt(int64_t v) {
  // An int below 9e15 in magnitude is its own double's integral value.
  if (std::fabs(static_cast<double>(v)) < 9e15) {
    return std::hash<int64_t>{}(v) ^ 0xabcdef1234567890ULL;
  }
  return std::hash<double>{}(static_cast<double>(v)) ^ 0xabcdef1234567890ULL;
}

/// Stable 64-bit hash consistent with CompareCells() == 0 (int 3 and
/// double 3.0 hash identically). Numbers hash by their double value, so
/// distinct ints past 2^53 may collide; they still compare unequal.
inline uint64_t HashCell(const CellRef& cell) {
  switch (cell.type) {
    case ColumnType::kInt64:
      return HashInt(cell.i);
    case ColumnType::kDouble:
      if (cell.d == std::floor(cell.d) && std::fabs(cell.d) < 9e15) {
        return std::hash<int64_t>{}(static_cast<int64_t>(cell.d)) ^
               0xabcdef1234567890ULL;
      }
      return std::hash<double>{}(cell.d) ^ 0xabcdef1234567890ULL;
    case ColumnType::kString:
      break;
  }
  return std::hash<std::string_view>{}(cell.s) * 0x9e3779b97f4a7c15ULL;
}

/// Approximate in-memory byte size of a cell: 8 for a number, the length
/// plus 8 for a string.
inline uint64_t CellByteSize(const CellRef& cell) {
  return cell.is_string() ? cell.s.size() + sizeof(size_t) : 8;
}

/// \brief A dynamically-typed scalar cell value.
///
/// Used for expression literals and for rows at a table's edge (the rows
/// Database::AddTable takes, a Table's row accessor). Strings are owned;
/// tables store cells in typed columns instead (see Column).
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  Value(int64_t v) : v_(v) {}
  Value(double v) : v_(v) {}
  Value(std::string v) : v_(std::move(v)) {}
  Value(const char* v) : v_(std::string(v)) {}

  ColumnType type() const {
    switch (v_.index()) {
      case 0:
        return ColumnType::kInt64;
      case 1:
        return ColumnType::kDouble;
      default:
        return ColumnType::kString;
    }
  }

  bool is_int() const { return v_.index() == 0; }
  bool is_double() const { return v_.index() == 1; }
  bool is_string() const { return v_.index() == 2; }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(v_))
                    : std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// This cell, read in place (see CellRef).
  CellRef cell() const {
    CellRef c;
    c.type = type();
    switch (v_.index()) {
      case 0:
        c.i = std::get<int64_t>(v_);
        break;
      case 1:
        c.d = std::get<double>(v_);
        break;
      default:
        c.s = std::get<std::string>(v_);
    }
    return c;
  }

  /// CompareCells() of the two cells.
  int Compare(const Value& other) const {
    return CompareCells(cell(), other.cell());
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// SQL-literal rendering ('abc' for strings).
  std::string ToString() const;

  /// HashCell() of this cell.
  uint64_t Hash() const { return HashCell(cell()); }

  /// Approximate in-memory byte size (for view space overhead).
  size_t ByteSize() const { return CellByteSize(cell()); }

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace autoview
