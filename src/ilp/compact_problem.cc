#include "ilp/compact_problem.h"

#include <algorithm>
#include <cstring>

#include "util/strings.h"

namespace autoview {

void CompressedRowStore::EncodeVarint(uint64_t value,
                                      std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

uint64_t CompressedRowStore::DecodeVarint(const uint8_t** p) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = *(*p)++;
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return value;
    shift += 7;
  }
}

void CompressedRowStore::AppendRow(const std::vector<Entry>& entries) {
  // Encode into a scratch buffer first so the row lands in one shard.
  std::vector<uint8_t> encoded;
  encoded.reserve(entries.size() * 10 + 4);
  EncodeVarint(entries.size(), &encoded);
  size_t prev = 0;
  bool first = true;
  for (const Entry& e : entries) {
    // Ascending ids: the delta to the previous id is >= 1 except for the
    // first entry, so store (id - prev - 1) and (first id) respectively.
    EncodeVarint(first ? e.index : e.index - prev - 1, &encoded);
    first = false;
    prev = e.index;
    uint8_t raw[sizeof(double)];
    std::memcpy(raw, &e.benefit, sizeof(raw));
    encoded.insert(encoded.end(), raw, raw + sizeof(raw));
  }

  if (shards_.empty() || shards_.back().size() + encoded.size() > shard_budget_) {
    // Seal the open shard (shrink to its payload) and start a new one.
    if (!shards_.empty()) shards_.back().shrink_to_fit();
    shards_.emplace_back();
    shards_.back().reserve(std::min(shard_budget_, encoded.size()));
  }
  std::vector<uint8_t>& shard = shards_.back();
  row_shard_.push_back(static_cast<uint32_t>(shards_.size() - 1));
  row_offset_.push_back(static_cast<uint32_t>(shard.size()));
  shard.insert(shard.end(), encoded.begin(), encoded.end());
  num_entries_ += entries.size();
}

size_t CompressedRowStore::byte_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.size();
  return total;
}

void CompressedRowStore::DecodeRow(size_t i, std::vector<Entry>* out) const {
  out->clear();
  ForEachEntry(i, [out](size_t view, double benefit) {
    out->push_back(Entry{view, benefit});
  });
}

Status CompactMvsProblem::Validate() const {
  const size_t nz = num_views();
  if (overlap_adjacency.size() != nz) {
    return Status::InvalidArgument(
        StrFormat("overlap adjacency has %zu lists for %zu views",
                  overlap_adjacency.size(), nz));
  }
  if (!frequency.empty() && frequency.size() != nz) {
    return Status::InvalidArgument(
        StrFormat("frequency has %zu entries for %zu views",
                  frequency.size(), nz));
  }
  for (size_t j = 0; j < nz; ++j) {
    const auto& adj = overlap_adjacency[j];
    if (!std::is_sorted(adj.begin(), adj.end()) ||
        std::adjacent_find(adj.begin(), adj.end()) != adj.end()) {
      return Status::InvalidArgument(
          StrFormat("adjacency of view %zu is not sorted/unique", j));
    }
    for (uint32_t k : adj) {
      if (k >= nz) {
        return Status::InvalidArgument(StrFormat(
            "adjacency of view %zu references view %u out of range", j, k));
      }
      if (k == j) {
        return Status::InvalidArgument(
            StrFormat("view %zu overlaps itself", j));
      }
      const auto& back = overlap_adjacency[k];
      if (!std::binary_search(back.begin(), back.end(),
                              static_cast<uint32_t>(j))) {
        return Status::InvalidArgument(
            StrFormat("overlap %zu-%u is not symmetric", j, k));
      }
    }
  }
  return Status::OK();
}

void ShardedProblemBuilder::SetViews(
    std::vector<double> overhead,
    std::vector<std::vector<uint32_t>> overlap_adjacency,
    std::vector<size_t> frequency) {
  problem_.overhead = std::move(overhead);
  problem_.overlap_adjacency = std::move(overlap_adjacency);
  problem_.frequency = std::move(frequency);
}

Result<CompactMvsProblem> ShardedProblemBuilder::Finalize() {
  AV_RETURN_NOT_OK(problem_.Validate());
  return std::move(problem_);
}

}  // namespace autoview
