#pragma once

#include <cstddef>
#include <vector>

#include "catalog/catalog.h"
#include "engine/cost.h"
#include "ilp/compact_problem.h"
#include "ilp/problem.h"
#include "subquery/clusterer.h"
#include "util/status.h"

namespace autoview {

class CardinalityEstimator;
class ThreadPool;
class TraditionalEstimator;

/// \brief Per-view estimated cost terms (the counterpart of
/// CandidateInfo in the execution-based path), shared by the batch
/// problem builders and the OnlineAdvisor's per-view re-pricing.
struct ViewEstimates {
  double overhead = 0.0;       ///< storage fee + estimated build cost
  double subquery_cost = 0.0;  ///< A(s), the estimated candidate cost
  double scan_cost = 0.0;      ///< A(scan v)
};

/// Prices one candidate plan from catalog statistics — the per-view
/// head of the batch builders, exposed so the online advisor can price
/// candidates one at a time with the identical arithmetic (the dense
/// oracle comparisons need the doubles bit-exact).
ViewEstimates EstimateView(const TraditionalEstimator& estimator,
                           const CardinalityEstimator& cardinality,
                           const Pricing& pricing, const PlanNode& plan);

/// The RealOpt benefit cell B = A(q) - (max(0, A(q) - A(s)) + A(scan v)),
/// matching the `exact_benefits == false` branch of BuildGroundTruth
/// with estimated terms substituted for measured ones.
double RealOptBenefitCell(double query_cost, const ViewEstimates& view);

/// \brief Options for the streaming benefit-matrix construction.
struct StreamingProblemOptions {
  Pricing pricing;
  /// Queries whose plans are in flight at once while estimating benefit
  /// rows; peak transient memory is O(chunk), not O(|Q|).
  size_t chunk = 1024;
  /// Byte budget per compressed-CSR shard (see CompressedRowStore).
  size_t shard_budget_bytes = 1 << 20;
  /// Executor for the per-chunk estimation; null => DefaultPool().
  ThreadPool* pool = nullptr;
};

/// \brief A paper-scale MVS instance built without ever materializing
/// the dense |Q| x |Z| matrix, plus the plan-level context a serving
/// pipeline needs afterwards.
struct StreamingProblem {
  CompactMvsProblem compact;
  /// Row i of `compact` describes workload query
  /// `associated_queries[i]` (same row universe as the dense
  /// AutoViewSystem path: queries that can use >= 1 candidate).
  std::vector<size_t> associated_queries;
  /// View j's candidate subquery plan (for materialization / rewrite).
  std::vector<PlanNodePtr> candidate_plans;
};

/// Builds the MVS instance for `analysis` with estimated costs — the
/// paper's RealOpt approximation A(q|v) ~= max(0, A(q) - A(s)) +
/// A(scan v) with every term served by the TraditionalEstimator from
/// catalog statistics, so nothing is executed (execution-based ground
/// truth at 157.6k queries is off the table; the small-scale dense path
/// in AutoViewSystem remains the oracle for that).
///
/// Streaming shape: per-view arrays are O(|Z|); query rows are estimated
/// chunk-by-chunk (plans transient, each task owns its row slot) and
/// appended to the ShardedProblemBuilder in ascending row order, exactly
/// the layout MvsProblemIndex's compact constructor expects. Each plan
/// is priced by one bottom-up walk (TraditionalEstimator::
/// EstimatePlanCost). The dense equivalent of the same instance is what
/// BuildDenseProblem returns — the scale tests assert the two produce
/// EXPECT_EQ-identical indexes.
///
/// `query_fn` is called once per associated query, concurrently for
/// distinct indices; AnalyzeStreaming has called it before, so it must
/// be re-invocable.
Result<StreamingProblem> BuildStreamingProblem(
    const Catalog& catalog, const WorkloadAnalysis& analysis,
    const SubqueryClusterer::QueryFn& query_fn,
    const StreamingProblemOptions& options);

/// Dense oracle of BuildStreamingProblem: identical per-cell arithmetic,
/// materialized as a plain MvsProblem. Only for verification sizes.
Result<MvsProblem> BuildDenseProblem(const Catalog& catalog,
                                     const WorkloadAnalysis& analysis,
                                     const SubqueryClusterer::QueryFn& query_fn,
                                     const StreamingProblemOptions& options);

}  // namespace autoview
