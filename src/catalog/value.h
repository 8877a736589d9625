#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "catalog/schema.h"

namespace autoview {

/// \brief A dynamically-typed scalar cell value.
///
/// Used for expression literals, row materialization and aggregation
/// state. Cheap int64/double paths; strings are owned.
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

  /// Two ints compare exactly; an int and a double compare as doubles;
  /// strings lexicographically. Cross string/number comparison orders
  /// strings last.
  int Compare(const Value& other) const {
    const bool a_str = is_string();
    const bool b_str = other.is_string();
    if (a_str != b_str) return a_str ? 1 : -1;
    if (a_str) {
      const auto& a = AsString();
      const auto& b = other.AsString();
      return a < b ? -1 : (a == b ? 0 : 1);
    }
    if (is_int() && other.is_int()) {
      // Exact: ints past 2^53 that round to the same double stay apart.
      const int64_t a = AsInt();
      const int64_t b = other.AsInt();
      return a < b ? -1 : (a == b ? 0 : 1);
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// SQL-literal rendering ('abc' for strings).
  std::string ToString() const;

  /// Stable 64-bit hash consistent with operator== (int 3 and double 3.0
  /// hash identically). Numbers hash by AsDouble(), so distinct ints past
  /// 2^53 may collide; they still compare unequal.
  uint64_t Hash() const;

  /// Approximate in-memory byte size (for view space overhead).
  size_t ByteSize() const {
    return is_string() ? AsString().size() + sizeof(size_t) : 8;
  }

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace autoview
