#include "catalog/value.h"

#include <cmath>
#include <functional>

namespace autoview {

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

}  // namespace autoview
