#pragma once

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace autoview {

/// \brief The Materialized View Selection ILP of §V-A:
///
///   argmax_{Z,Y}  sum_ij y_ij B_ij  -  sum_j z_j O_j
///   s.t.  y_ij + sum_{k != j} x_jk y_ik <= 1   (overlap)
///         y_ij <= z_j                          (view must exist)
///
/// All inputs are plain arrays so selectors are decoupled from plans.
struct MvsProblem {
  /// benefit[i][j] = B(q_i, v_j); 0 (or negative) when query i cannot
  /// profit from view j.
  std::vector<std::vector<double>> benefit;
  /// overhead[j] = O(v_j) = storage fee + build cost.
  std::vector<double> overhead;
  /// Symmetric overlap flags x[j][k] (Definition 5); x[j][j] is false.
  std::vector<std::vector<bool>> overlap;
  /// frequency[j]: number of workload queries containing subquery j
  /// (used by the TopkFreq greedy baseline).
  std::vector<size_t> frequency;

  size_t num_queries() const { return benefit.size(); }
  size_t num_views() const { return overhead.size(); }

  /// Structural validation (matching dimensions, symmetric overlap).
  Status Validate() const;

  /// Total benefit of view j across the workload (B_max[j]).
  double MaxBenefit(size_t j) const;
};

/// \brief A (Z, Y) assignment with its utility.
struct MvsSolution {
  std::vector<bool> z;               ///< |Z| materialization flags
  std::vector<std::vector<bool>> y;  ///< |Q| x |Z| usage flags
  double utility = 0.0;
  /// True when the producing selector hit its deadline (or was
  /// cancelled) and returned its best-so-far incumbent rather than a
  /// fully converged solution. The incumbent is still feasible.
  bool timed_out = false;
};

/// Utility of (z, y); does not check feasibility.
double EvaluateUtility(const MvsProblem& problem, const std::vector<bool>& z,
                       const std::vector<std::vector<bool>>& y);

/// True iff (z, y) satisfies both ILP constraint families.
bool IsFeasible(const MvsProblem& problem, const std::vector<bool>& z,
                const std::vector<std::vector<bool>>& y);

class MvsProblemIndex;

/// \brief Exact solver of the per-query local ILP (the paper's Y-Opt
/// inner problem): given fixed Z, choose the non-overlapping view subset
/// maximizing the query's benefit. This substitutes the PuLP / Gurobi
/// call with a branch-and-bound that is exact for the (small) per-query
/// instances.
///
/// Every read (benefits, overlap, sizes) goes through the index:
/// applicable-view collection walks the query's sparse CSR row, and
/// tie-free rows reuse the precomputed benefit-descending order instead
/// of re-sorting per call. The index must outlive the solver.
class YOptSolver {
 public:
  explicit YOptSolver(const MvsProblemIndex* index) : index_(index) {}

  /// Optimal y row for query `query_index` under `z`.
  std::vector<bool> SolveQuery(size_t query_index,
                               const std::vector<bool>& z) const;

  /// Runs SolveQuery for every query; returns the full Y.
  std::vector<std::vector<bool>> SolveAll(const std::vector<bool>& z) const;

  /// Utility of z with Y chosen optimally per query.
  double UtilityOf(const std::vector<bool>& z) const;

 private:
  void Search(const std::vector<size_t>& views,
              const std::vector<double>& weights, size_t pos, double current,
              std::vector<bool>* taken, double* best,
              std::vector<bool>* best_taken) const;

  const MvsProblemIndex* index_;
};

}  // namespace autoview
