#pragma once

#include <vector>

#include "plan/plan.h"

namespace autoview {

class ThreadPool;

/// \brief Options for subquery extraction.
struct ExtractorOptions {
  /// Count the query's own root as a subquery (off in the paper's Fig. 2:
  /// s1, s2, s3 are proper subplans).
  bool include_root = false;
  /// Minimum number of operators for a subplan to count (1 keeps bare
  /// Project-over-Scan subqueries; raise to skip trivial ones).
  size_t min_operators = 2;
};

/// \brief Extracts candidate subqueries from query plans.
///
/// Following §III (pre-process), a subquery is any subplan rooted at an
/// Aggregate, Join or Project operator.
class SubqueryExtractor {
 public:
  explicit SubqueryExtractor(ExtractorOptions options = ExtractorOptions())
      : options_(options) {}

  /// All subqueries of `query`, in pre-order. Every returned pointer
  /// owns its node (the root subquery is `query` itself), so the
  /// subqueries outlive the caller's handle on `query`. When `positions`
  /// is set it receives each subquery's index in `query->Subtrees()`.
  std::vector<PlanNodePtr> Extract(
      const PlanNodePtr& query, std::vector<size_t>* positions = nullptr) const;

  /// Extract() over every query, parallelized across `pool`
  /// (DefaultPool() when null). out[i] == Extract(queries[i]); queries
  /// are independent plan trees, so per-query extraction runs
  /// concurrently while the result keeps the sequential layout.
  std::vector<std::vector<PlanNodePtr>> ExtractAll(
      const std::vector<PlanNodePtr>& queries,
      ThreadPool* pool = nullptr) const;

  const ExtractorOptions& options() const { return options_; }

 private:
  ExtractorOptions options_;
};

}  // namespace autoview
