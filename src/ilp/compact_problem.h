#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ilp/problem.h"
#include "util/status.h"

namespace autoview {

/// \brief Compressed CSR storage for benefit-matrix rows, built in
/// bounded-memory shards.
///
/// At paper scale the dense |Q| x |Z| benefit matrix is the memory
/// bottleneck (WK2: 157.6k queries x thousands of candidates of
/// 8-byte doubles — gigabytes for a matrix that is ~99% zeros). This
/// store keeps only the nonzero cells, encoded per row as
///
///   varint(entry count) . varint(view-id delta)* . raw 8-byte benefit*
///
/// with view ids ascending within a row, so each id is a small delta
/// (usually 1-2 bytes instead of 8). Rows are appended in ascending
/// query order into fixed-budget byte shards; a sealed shard is never
/// touched again, so the writer's working set is one shard plus O(1)
/// per-row bookkeeping — the "streaming/sharded construction" of the
/// scale pipeline (DESIGN.md §10).
///
/// Decoding is exact: benefits round-trip bit-identically (raw IEEE-754
/// bytes, never re-parsed through text), which is what lets an
/// MvsProblemIndex built from this store compare EXPECT_EQ-equal to one
/// built from the dense matrix.
class CompressedRowStore {
 public:
  /// `shard_budget_bytes` bounds each shard's payload; a row that
  /// overflows the current shard seals it and starts the next one
  /// (a single row larger than the budget gets a shard of its own).
  explicit CompressedRowStore(size_t shard_budget_bytes = 1 << 20)
      : shard_budget_(shard_budget_bytes ? shard_budget_bytes : 1) {}

  /// One nonzero cell of a row. Mirrors MvsProblemIndex::Entry so
  /// decoded rows can be compared against index rows directly.
  struct Entry {
    size_t index;    ///< view id, ascending within a row
    double benefit;  ///< B_ij exactly as stored in the dense matrix
  };

  /// Appends the next row (entries must be ascending by view id; any
  /// benefit value including negatives is legal, zeros are the caller's
  /// job to omit). Rows are implicitly numbered 0, 1, 2, ... in append
  /// order.
  void AppendRow(const std::vector<Entry>& entries);

  size_t num_rows() const { return row_shard_.size(); }
  size_t num_shards() const { return shards_.size(); }
  /// Total nonzero entries appended.
  size_t num_entries() const { return num_entries_; }

  /// Compressed payload bytes across all shards (the memory the store
  /// actually holds for row data; bookkeeping adds 8 bytes per row).
  size_t byte_size() const;

  /// Decodes row `i` into `out` (cleared first). Bit-identical to what
  /// was appended.
  void DecodeRow(size_t i, std::vector<Entry>* out) const;

  /// Calls `fn(view, benefit)` for each entry of row `i` in ascending
  /// view order, without materializing a vector.
  template <typename Fn>
  void ForEachEntry(size_t i, Fn&& fn) const {
    const std::vector<uint8_t>& shard = shards_[row_shard_[i]];
    const uint8_t* p = shard.data() + row_offset_[i];
    const uint64_t count = DecodeVarint(&p);
    uint64_t view = 0;
    for (uint64_t n = 0; n < count; ++n) {
      view += DecodeVarint(&p);
      double benefit;
      __builtin_memcpy(&benefit, p, sizeof(benefit));
      p += sizeof(benefit);
      fn(static_cast<size_t>(view), benefit);
      ++view;  // deltas are between consecutive ids, stored minus one
    }
  }

  /// Varint primitives (LEB128, low 7 bits per byte), exposed for the
  /// decode bit-identity tests.
  static void EncodeVarint(uint64_t value, std::vector<uint8_t>* out);
  static uint64_t DecodeVarint(const uint8_t** p);

 private:
  size_t shard_budget_;
  std::vector<std::vector<uint8_t>> shards_;
  // Row i lives at shards_[row_shard_[i]] + row_offset_[i].
  std::vector<uint32_t> row_shard_;
  std::vector<uint32_t> row_offset_;
  size_t num_entries_ = 0;
};

/// \brief A complete MVS instance in sparse/compressed form: the
/// benefit rows as compressed CSR plus the (small, O(|Z|)) per-view
/// arrays. Equivalent to an MvsProblem whose dense matrix was never
/// materialized; MvsProblemIndex accepts either and builds identical
/// structures.
struct CompactMvsProblem {
  CompressedRowStore rows;           ///< nonzero benefit cells per query
  std::vector<double> overhead;      ///< O_j
  /// Symmetric overlap as sorted adjacency lists (x_jk of Definition 5);
  /// adjacency[j] never contains j.
  std::vector<std::vector<uint32_t>> overlap_adjacency;
  std::vector<size_t> frequency;     ///< optional, as in MvsProblem

  size_t num_queries() const { return rows.num_rows(); }
  size_t num_views() const { return overhead.size(); }

  /// Structural validation (adjacency sorted/symmetric/irreflexive,
  /// view ids in range).
  Status Validate() const;
};

/// \brief Streaming builder for CompactMvsProblem: declare the views
/// once, then append benefit rows in ascending query order. Peak memory
/// is one open shard plus the O(|Z|) view arrays — never |Q| x |Z|.
class ShardedProblemBuilder {
 public:
  explicit ShardedProblemBuilder(size_t shard_budget_bytes = 1 << 20)
      : problem_{CompressedRowStore(shard_budget_bytes), {}, {}, {}} {}

  /// Declares the per-view arrays. `overlap_adjacency[j]` must be the
  /// sorted list of views overlapping j (symmetry is validated at
  /// Finalize).
  void SetViews(std::vector<double> overhead,
                std::vector<std::vector<uint32_t>> overlap_adjacency,
                std::vector<size_t> frequency = {});

  /// Appends the next query row; `entries` are the nonzero benefit
  /// cells in ascending view order.
  void AddRow(const std::vector<CompressedRowStore::Entry>& entries) {
    problem_.rows.AppendRow(entries);
  }

  size_t rows_added() const { return problem_.rows.num_rows(); }

  /// Validates and releases the finished problem; the builder is
  /// moved-from afterwards.
  Result<CompactMvsProblem> Finalize();

 private:
  CompactMvsProblem problem_;
};

}  // namespace autoview
