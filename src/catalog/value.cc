#include "catalog/value.h"

#include <cmath>
#include <functional>

namespace autoview {

int Value::Compare(const Value& other) const {
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

std::string Value::ToString() const {
  switch (v_.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v_));
    case 1: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v_));
      return buf;
    }
    default:
      return "'" + std::get<std::string>(v_) + "'";
  }
}

uint64_t Value::Hash() const {
  if (is_string()) {
    return std::hash<std::string>{}(AsString()) * 0x9e3779b97f4a7c15ULL;
  }
  // Hash by numeric value so 3 and 3.0 collide (they compare equal).
  const double d = AsDouble();
  if (d == std::floor(d) && std::fabs(d) < 9e15) {
    return std::hash<int64_t>{}(static_cast<int64_t>(d)) ^
           0xabcdef1234567890ULL;
  }
  return std::hash<double>{}(d) ^ 0xabcdef1234567890ULL;
}

size_t Value::ByteSize() const {
  return is_string() ? AsString().size() + sizeof(size_t) : 8;
}

}  // namespace autoview
