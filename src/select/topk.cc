#include <algorithm>
#include <numeric>

#include "ilp/problem_index.h"
#include "select/selector.h"

namespace autoview {

namespace {

/// Materializes the first k views of `order` and assigns them per query
/// with the exact Y-Opt.
MvsSolution SelectTopK(const MvsProblemIndex& index,
                       const std::vector<size_t>& order, size_t k) {
  MvsSolution solution;
  solution.z.assign(index.num_views(), false);
  for (size_t p = 0; p < k && p < order.size(); ++p) {
    solution.z[order[p]] = true;
  }
  solution.y = YOptSolver(&index).SolveAll(solution.z);
  solution.utility = index.EvaluateUtilitySparse(solution.z, solution.y);
  return solution;
}

}  // namespace

const char* TopkStrategyName(TopkStrategy strategy) {
  switch (strategy) {
    case TopkStrategy::kFrequency:
      return "TopkFreq";
    case TopkStrategy::kOverhead:
      return "TopkOver";
    case TopkStrategy::kBenefit:
      return "TopkBen";
    case TopkStrategy::kNormalized:
      return "TopkNorm";
  }
  return "?";
}

std::vector<size_t> TopkSelector::Ranking(const MvsProblem& problem) const {
  std::vector<size_t> order(problem.num_views());
  std::iota(order.begin(), order.end(), size_t{0});
  auto score = [&](size_t j) -> double {
    switch (strategy_) {
      case TopkStrategy::kFrequency:
        return j < problem.frequency.size()
                   ? static_cast<double>(problem.frequency[j])
                   : 0.0;
      case TopkStrategy::kOverhead:
        return -problem.overhead[j];  // smaller overhead ranks higher
      case TopkStrategy::kBenefit:
        return problem.MaxBenefit(j);
      case TopkStrategy::kNormalized: {
        const double overhead = std::max(problem.overhead[j], 1e-12);
        return (problem.MaxBenefit(j) - overhead) / overhead;
      }
    }
    return 0.0;
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return score(a) > score(b);
  });
  return order;
}

Result<MvsSolution> TopkSelector::Select(const MvsProblem& problem) {
  AV_RETURN_NOT_OK(problem.Validate());
  trace_.clear();
  const MvsProblemIndex index(problem);
  MvsSolution solution = SelectTopK(index, Ranking(problem), k_);
  trace_.push_back(solution.utility);
  return solution;
}

Result<std::vector<double>> TopkUtilityCurve(const MvsProblem& problem,
                                             TopkStrategy strategy,
                                             size_t step) {
  AV_RETURN_NOT_OK(problem.Validate());
  const std::vector<size_t> order = TopkSelector(strategy, 0).Ranking(problem);
  const MvsProblemIndex index(problem);
  std::vector<double> curve;
  for (size_t k = 0; k <= problem.num_views(); k += std::max<size_t>(1, step)) {
    curve.push_back(SelectTopK(index, order, k).utility);
  }
  return curve;
}

}  // namespace autoview
