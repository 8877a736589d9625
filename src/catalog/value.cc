#include "catalog/value.h"

#include <cstdio>

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

}  // namespace autoview
