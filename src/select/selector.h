#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ilp/problem.h"

namespace autoview {

/// \brief Common interface of the view-selection methods compared in
/// Table IV / Figures 9-10.
class ViewSelector {
 public:
  virtual ~ViewSelector() = default;

  /// Solves (approximately) the MVS problem.
  virtual Result<MvsSolution> Select(const MvsProblem& problem) = 0;

  /// Display name ("RLView", "BigSub", "TopkBen", ...).
  virtual std::string name() const = 0;

  /// Utility after each iteration/step of the last Select call (used by
  /// the Fig. 10 convergence bench). Greedy methods record one entry.
  const std::vector<double>& utility_trace() const { return trace_; }

 protected:
  std::vector<double> trace_;
};

/// \brief Ranking strategies of the greedy Top-k baselines [10].
enum class TopkStrategy {
  kFrequency,  ///< TopkFreq: subquery frequency in the workload, desc
  kOverhead,   ///< TopkOver: materialization overhead, asc
  kBenefit,    ///< TopkBen: total workload benefit, desc
  kNormalized, ///< TopkNorm: utility-to-overhead ratio, desc
};

const char* TopkStrategyName(TopkStrategy strategy);

/// \brief Greedy baseline: rank candidates by `strategy`, materialize
/// the top k, and assign views per query with the exact Y-Opt.
class TopkSelector : public ViewSelector {
 public:
  TopkSelector(TopkStrategy strategy, size_t k)
      : strategy_(strategy), k_(k) {}

  Result<MvsSolution> Select(const MvsProblem& problem) override;
  std::string name() const override { return TopkStrategyName(strategy_); }

  /// The ranked candidate order for `problem` (before truncation at k).
  std::vector<size_t> Ranking(const MvsProblem& problem) const;

 private:
  TopkStrategy strategy_;
  size_t k_;
};

/// Sweeps k in [0, num_views] and returns the utility at each k —
/// the curves of Fig. 9. `step` subsamples the sweep for large |Z|.
/// Each point equals TopkSelector(strategy, k).Select(problem)'s
/// utility; a malformed problem is an InvalidArgument, not a curve.
Result<std::vector<double>> TopkUtilityCurve(const MvsProblem& problem,
                                             TopkStrategy strategy,
                                             size_t step = 1);

}  // namespace autoview
