#include "ilp/problem.h"

#include <algorithm>
#include <numeric>

#include "ilp/problem_index.h"
#include "util/strings.h"

namespace autoview {

Status MvsProblem::Validate() const {
  const size_t z = num_views();
  if (overlap.size() != z) {
    return Status::InvalidArgument("overlap matrix has wrong row count");
  }
  for (size_t j = 0; j < z; ++j) {
    if (overlap[j].size() != z) {
      return Status::InvalidArgument("overlap matrix has wrong column count");
    }
    if (overlap[j][j]) {
      return Status::InvalidArgument("overlap diagonal must be false");
    }
    for (size_t k = 0; k < z; ++k) {
      if (overlap[j][k] != overlap[k][j]) {
        return Status::InvalidArgument("overlap matrix must be symmetric");
      }
    }
  }
  for (const auto& row : benefit) {
    if (row.size() != z) {
      return Status::InvalidArgument(
          StrFormat("benefit row width %zu != %zu", row.size(), z));
    }
  }
  if (!frequency.empty() && frequency.size() != z) {
    return Status::InvalidArgument("frequency has wrong size");
  }
  return Status::OK();
}

double MvsProblem::MaxBenefit(size_t j) const {
  double total = 0.0;
  for (const auto& row : benefit) {
    if (row[j] > 0) total += row[j];
  }
  return total;
}

double EvaluateUtility(const MvsProblem& problem, const std::vector<bool>& z,
                       const std::vector<std::vector<bool>>& y) {
  double utility = 0.0;
  for (size_t i = 0; i < problem.num_queries(); ++i) {
    for (size_t j = 0; j < problem.num_views(); ++j) {
      if (y[i][j]) utility += problem.benefit[i][j];
    }
  }
  for (size_t j = 0; j < problem.num_views(); ++j) {
    if (z[j]) utility -= problem.overhead[j];
  }
  return utility;
}

bool IsFeasible(const MvsProblem& problem, const std::vector<bool>& z,
                const std::vector<std::vector<bool>>& y) {
  const size_t nz = problem.num_views();
  if (z.size() != nz || y.size() != problem.num_queries()) return false;
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i].size() != nz) return false;
    for (size_t j = 0; j < nz; ++j) {
      if (!y[i][j]) continue;
      if (!z[j]) return false;  // y_ij <= z_j
      for (size_t k = j + 1; k < nz; ++k) {
        if (y[i][k] && problem.overlap[j][k]) return false;
      }
    }
  }
  return true;
}

void YOptSolver::Search(const std::vector<size_t>& views,
                        const std::vector<double>& weights, size_t pos,
                        double current, std::vector<bool>* taken, double* best,
                        std::vector<bool>* best_taken) const {
  if (pos == views.size()) {
    if (current > *best) {
      *best = current;
      *best_taken = *taken;
    }
    return;
  }
  // Upper bound: everything remaining is compatible.
  double bound = current;
  for (size_t p = pos; p < views.size(); ++p) bound += weights[p];
  if (bound <= *best) return;

  // Branch: take views[pos] if compatible with the current selection.
  bool compatible = true;
  for (size_t p = 0; p < pos && compatible; ++p) {
    if ((*taken)[p] && index_->OverlapTest(views[p], views[pos])) {
      compatible = false;
    }
  }
  if (compatible) {
    (*taken)[pos] = true;
    Search(views, weights, pos + 1, current + weights[pos], taken, best,
           best_taken);
    (*taken)[pos] = false;
  }
  Search(views, weights, pos + 1, current, taken, best, best_taken);
}

std::vector<bool> YOptSolver::SolveQuery(size_t query_index,
                                         const std::vector<bool>& z) const {
  std::vector<size_t> views;
  std::vector<double> weights;  // parallel to views throughout
  bool presorted = false;
  const auto& sparse_row = index_->Row(query_index);
  if (!index_->RowHasTies(query_index)) {
    // All benefits in the row are distinct, so the descending order is
    // unique: filtering the precomputed order by z gives exactly what
    // sorting the z-filtered subset would.
    for (size_t p : index_->RowByBenefit(query_index)) {
      if (z[sparse_row[p].index]) {
        views.push_back(sparse_row[p].index);
        weights.push_back(sparse_row[p].benefit);
      }
    }
    presorted = true;
  } else {
    for (const MvsProblemIndex::Entry& e : sparse_row) {
      if (z[e.index]) {
        views.push_back(e.index);
        weights.push_back(e.benefit);
      }
    }
  }
  std::vector<bool> row(z.size(), false);
  if (views.empty()) return row;

  // Descending-benefit order tightens the bound early. A row with ties
  // sorts its z-filtered subset: std::sort is unstable, so filtering
  // the full row's precomputed order could order equal benefits
  // differently.
  if (!presorted) {
    std::vector<size_t> order(views.size());
    for (size_t p = 0; p < order.size(); ++p) order[p] = p;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return weights[a] > weights[b]; });
    std::vector<size_t> sorted_views(views.size());
    std::vector<double> sorted_weights(views.size());
    for (size_t p = 0; p < order.size(); ++p) {
      sorted_views[p] = views[order[p]];
      sorted_weights[p] = weights[order[p]];
    }
    views.swap(sorted_views);
    weights.swap(sorted_weights);
  }

  // Exact for small instances; greedy fallback above the cutoff keeps
  // the worst case polynomial (instances that large do not arise from
  // per-query applicable-view counts in practice).
  constexpr size_t kExactCutoff = 26;
  std::vector<bool> taken(views.size(), false);
  std::vector<bool> best_taken(views.size(), false);
  if (views.size() <= kExactCutoff) {
    double best = 0.0;
    Search(views, weights, 0, 0.0, &taken, &best, &best_taken);
  } else {
    for (size_t p = 0; p < views.size(); ++p) {
      bool compatible = true;
      for (size_t q = 0; q < p && compatible; ++q) {
        if (best_taken[q] && index_->OverlapTest(views[q], views[p])) {
          compatible = false;
        }
      }
      best_taken[p] = compatible;
    }
  }
  for (size_t p = 0; p < views.size(); ++p) {
    if (best_taken[p]) row[views[p]] = true;
  }
  return row;
}

std::vector<std::vector<bool>> YOptSolver::SolveAll(
    const std::vector<bool>& z) const {
  const size_t nq = index_->num_queries();
  std::vector<std::vector<bool>> y;
  y.reserve(nq);
  for (size_t i = 0; i < nq; ++i) {
    y.push_back(SolveQuery(i, z));
  }
  return y;
}

double YOptSolver::UtilityOf(const std::vector<bool>& z) const {
  // Solver-produced y has its support inside the positive cells, the
  // regime where the sparse evaluation is bit-identical to the dense one.
  return index_->EvaluateUtilitySparse(z, SolveAll(z));
}

}  // namespace autoview
