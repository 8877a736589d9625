#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace autoview {

/// FNV-1a over `n` bytes: tiny, dependency-free, and plenty to catch
/// truncation and bit rot (this is corruption detection, not crypto).
/// Checksums the view-state log's records (engine/view_store_log).
uint64_t Fnv1a64(const void* data, size_t n);

/// Convenience overload for string payloads (WAL record bodies).
inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

}  // namespace autoview
