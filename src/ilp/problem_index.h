#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ilp/compact_problem.h"
#include "ilp/problem.h"
#include "util/status.h"

namespace autoview {

/// \brief Sparse index over one MVS instance: the only way the selectors
/// and Y-Opt read an instance. Built once per Select() call (or kept
/// and mutated by the online advisor).
///
/// The index is self-contained: it can be built either from a dense
/// MvsProblem or from a CompactMvsProblem whose rows
/// arrive from the streaming/sharded builder — the dense |Q| x |Z|
/// matrix need never exist. Both constructors produce bit-identical
/// structures for the same underlying instance (asserted by the
/// problem_index tests), because every array is accumulated in the same
/// ascending order either way.
///
/// Contents: three sparse projections plus the per-view aggregates the
/// solvers used to re-derive from scratch every iteration:
///
///  * CSR benefit rows: per query, the (view, B_ij) entries with
///    B_ij > 0, stored in ascending view order. Ascending order matters:
///    it makes sparse sums bit-identical to the dense row-major scans
///    they replace (the dense loops skip non-positive / unused cells, so
///    visiting only the support in the same order performs the exact
///    same float additions — see DESIGN.md §9).
///  * An inverted view -> queries index over the *nonzero* cells
///    (negative benefits included, matching the `benefit != 0` affected
///    test in RLView's environment step), ascending query order.
///  * Overlap adjacency lists replacing O(|Z|) dense row scans.
///
/// Each CSR row also carries a benefit-descending permutation computed
/// with the same std::sort call Y-Opt uses, so rows without duplicate
/// benefits can skip the per-solve sort (for rows with ties the solver
/// re-sorts the z-filtered subset, because an unstable sort of a subset
/// is not guaranteed to equal the filtered sort of the full row).
class MvsProblemIndex {
 public:
  /// One nonzero benefit cell.
  struct Entry {
    size_t index;    ///< view (in rows) or query (in columns)
    double benefit;  ///< B_ij as stored in the dense matrix

    bool operator==(const Entry& other) const {
      return index == other.index && benefit == other.benefit;
    }
  };

  /// Empty 0 x 0 index; grown one query/view at a time by the mutation
  /// methods below (the OnlineAdvisor's starting state).
  MvsProblemIndex() = default;

  explicit MvsProblemIndex(const MvsProblem& problem);
  /// Builds the identical index from compressed-CSR shards; no dense
  /// matrix is ever touched. `compact` may be released afterwards — the
  /// index owns copies of everything it needs.
  explicit MvsProblemIndex(const CompactMvsProblem& compact);

  size_t num_queries() const { return rows_.size(); }
  size_t num_views() const { return overhead_.size(); }

  /// Positive-benefit entries of query i, ascending view index.
  const std::vector<Entry>& Row(size_t i) const { return rows_[i]; }

  /// Positions into Row(i) ordered by descending benefit (the Y-Opt
  /// exploration order), computed with the solver's own comparator.
  const std::vector<size_t>& RowByBenefit(size_t i) const {
    return rows_by_benefit_[i];
  }

  /// True when Row(i) contains duplicate benefit values, in which case
  /// RowByBenefit() must not substitute for a per-subset sort.
  bool RowHasTies(size_t i) const { return row_has_ties_[i]; }

  /// Nonzero-benefit entries of view j's column, ascending query index.
  const std::vector<Entry>& Column(size_t j) const { return columns_[j]; }

  /// Views overlapping view j (Definition 5), ascending.
  const std::vector<size_t>& Overlapping(size_t j) const {
    return adjacency_[j];
  }

  /// Overlap flag x_jk via binary search of j's adjacency — the sparse
  /// stand-in for `problem.overlap[j][k]`.
  bool OverlapTest(size_t j, size_t k) const {
    const std::vector<size_t>& adj = adjacency_[j];
    return std::binary_search(adj.begin(), adj.end(), k);
  }

  /// O_j (the index keeps its own copy so compact-built instances do not
  /// depend on a live problem object).
  const std::vector<double>& Overhead() const { return overhead_; }

  /// B_max[j], bit-identical to MvsProblem::MaxBenefit(j).
  double MaxBenefit(size_t j) const { return max_benefit_[j]; }

  /// Standalone utility of view j: best-case benefit minus overhead
  /// (B_max[j] - O_j). A per-view invariant of the problem instance —
  /// independent of the evolving assignment — which is what the
  /// budgeted view store feeds its utility-per-byte eviction score, so
  /// eviction order stays deterministic for a given workload.
  double ViewUtility(size_t j) const { return max_benefit_[j] - overhead_[j]; }

  /// sum_j O_j and sum_j B_max[j], accumulated in ascending view order
  /// (the order of a dense per-view loop).
  double TotalOverhead() const { return total_overhead_; }
  double TotalMaxBenefit() const { return total_max_benefit_; }

  /// Total nonzero benefit cells (sizing work estimates and tests).
  size_t NumNonzero() const { return num_nonzero_; }

  /// Total positive benefit cells — exactly the cells a sparse utility
  /// evaluation reads (the benefit-cell count charged to
  /// GlobalSelection() by the selectors).
  size_t NumPositive() const { return num_positive_; }

  /// Utility of (z, y), bit-identical to the dense EvaluateUtility for
  /// any y whose support is within the positive-benefit support (true
  /// for every y the solvers produce). Reads O(nnz + |Z|) cells instead
  /// of |Q| x |Z|; the cells actually read are counted into
  /// GlobalSelection() by the callers, not here.
  double EvaluateUtilitySparse(const std::vector<bool>& z,
                               const std::vector<std::vector<bool>>& y) const;

  /// Recomputes b_cur[j] = sum_i { B_ij : y_ij, B_ij > 0 } for one view,
  /// bit-identical to the dense benefit pass (ascending query order).
  double CurrentBenefit(size_t j,
                        const std::vector<std::vector<bool>>& y) const;

  // -------------------------------------------------------------------
  // Mutations (the online advisor's re-indexing path). Each call leaves
  // the index equal (operator==, every field, FP values bit-exact) to
  // an index rebuilt from scratch over the mutated instance — see
  // DESIGN.md §12 for the per-field argument. Scalar totals are
  // re-folded in the canonical ascending order after every mutation;
  // per-row orders are re-sorted from the identity permutation exactly
  // as BuildOrdersAndAggregates does, so even unstable-sort outcomes
  // match a rebuild. Cost is O(affected) except RetireQueryRow /
  // RetireCandidateView, which renumber the tail (O(nnz) walks).

  /// Appends query row num_queries(): `entries` are the new row's
  /// nonzero cells (positive and negative), ascending view index.
  Status InsertQueryRow(const std::vector<Entry>& entries);

  /// Removes query row `i`; rows above it shift down one index.
  Status RetireQueryRow(size_t i);

  /// Appends view num_views(): `column` is its nonzero cells ascending
  /// query index; `overlapping` lists the existing views it overlaps
  /// (ascending; the symmetric edges are added automatically).
  Status AddCandidateView(double overhead, const std::vector<Entry>& column,
                          const std::vector<size_t>& overlapping);

  /// Removes view `j`; views above it shift down one index.
  Status RetireCandidateView(size_t j);

  /// Field-wise equality, FP values compared bit-exactly — the mutation
  /// tests assert EXPECT_EQ against a rebuilt-from-scratch index.
  bool operator==(const MvsProblemIndex& other) const;

 private:
  /// Shared tail of both constructors: per-row benefit-descending orders
  /// and tie flags, then the per-view aggregates. Requires rows_,
  /// columns_, adjacency_, overhead_ to be fully populated.
  void BuildOrdersAndAggregates();

  /// Re-sorts row i's benefit order from the identity permutation and
  /// refreshes its tie flag — the same code path a rebuild runs.
  void RebuildRowOrder(size_t i);

  /// Fresh ascending-query fold of column j's positive entries — the
  /// rebuild's MaxBenefit accumulation.
  void RecomputeMaxBenefit(size_t j);

  /// Fresh ascending-view folds of the two scalar totals.
  void RecomputeTotals();

  std::vector<double> overhead_;
  std::vector<std::vector<Entry>> rows_;
  std::vector<std::vector<size_t>> rows_by_benefit_;
  std::vector<bool> row_has_ties_;
  std::vector<std::vector<Entry>> columns_;
  std::vector<std::vector<size_t>> adjacency_;
  std::vector<double> max_benefit_;
  double total_overhead_ = 0.0;
  double total_max_benefit_ = 0.0;
  size_t num_nonzero_ = 0;
  size_t num_positive_ = 0;
};

}  // namespace autoview
