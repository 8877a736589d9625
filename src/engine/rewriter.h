#pragma once

#include <cstdint>
#include <vector>

#include "engine/view_index.h"
#include "engine/view_store.h"
#include "plan/plan.h"
#include "util/status.h"

namespace autoview {

/// \brief One serving-path rewrite: the output plan, how many distinct
/// views it substituted, an RAII pin over exactly those views (so their
/// backing tables outlive execution), and whether the rewrite cache
/// served it.
struct ServingRewrite {
  PlanNodePtr plan;
  size_t num_substitutions = 0;
  ViewSetSnapshot pins;
  bool cache_hit = false;
};

/// \brief Rewrites query plans to scan materialized views instead of
/// recomputing their subqueries.
///
/// A subtree is replaced when it is semantically equivalent (canonical
/// key match) to a view's plan. The replacement is a TableScan of the
/// view's backing table, plus a Project that restores the subtree's
/// exact output column order/names so all parent expressions stay valid.
///
/// One walk does it: RewriteAllIndexed computes each node's canonical
/// key once, bottom-up (CanonicalKeyWithChildren), probes a ViewIndex,
/// and applies the matches in ascending view id, pre-order within a
/// view, with interval blocking. O(plan + matches). The views a rewrite
/// may use are exactly the views in the index it is given: serving
/// passes the store's index, the ground truth a one-view index per
/// candidate, and Table V one index per query's assigned views. The
/// per-view sequential loop it replays (one plan walk per view,
/// CanonicalKey recomputed at every node) is the test oracle in
/// tests/rewrite_oracle.h; rewrite_fast_path_test and property_test
/// EXPECT_EQ the two plans.
class Rewriter {
 public:
  /// `catalog` must contain the views' backing tables.
  explicit Rewriter(const Catalog* catalog) : catalog_(catalog) {}

  /// Rewrites `plan` with the views indexed in `index`. Where two
  /// matches overlap, the lower view id wins, and within one view the
  /// match nearer the root wins. `*num_substitutions` (optional) gets
  /// the number of distinct views substituted; `*used_view_ids`
  /// (optional) gets those views' ids ascending, so callers can pin
  /// exactly the views the plan scans before executing it. A view
  /// whose backing table has been concurrently evicted or dropped is
  /// skipped: the matched subtree keeps its base-table form and the
  /// fallback is counted in GlobalRobustness(), so the result never
  /// scans a missing table.
  ///
  /// Contract: views indexed here are defined over base-table plans
  /// (the store only materializes workload subqueries), so a
  /// substitution can never create a new match — which is what lets
  /// one walk over the *original* plan replay the sequential loop's
  /// behavior on its partially-rewritten intermediates exactly.
  Result<PlanNodePtr> RewriteAllIndexed(
      const PlanNodePtr& plan, const ViewIndex& index,
      size_t* num_substitutions,
      std::vector<int64_t>* used_view_ids) const;

  /// The full serving fast path against `store`: rewrite-cache lookup
  /// keyed by (root canonical key, store generation) — a hit re-pins
  /// the cached views and returns immediately; a miss runs
  /// RewriteAllIndexed against the store's view index, pins the
  /// substituted views (retrying the walk when a view vanished in
  /// between), caches the result, and returns it. If pinning keeps
  /// failing (store churning faster than we can pin), it returns `plan`
  /// itself with an empty pin set — the base-table answer a vanished
  /// view already degrades to — and counts a rewrite fallback in
  /// GlobalRobustness(). A concurrent eviction therefore never reaches
  /// the caller as an error. Hit/miss/pin-failure counters land in
  /// GlobalRewriteCache().
  Result<ServingRewrite> RewriteServing(const PlanNodePtr& plan,
                                        MaterializedViewStore* store) const;

 private:
  /// Builds Scan(view backing table) [+ Project] matching `original`'s
  /// output. Returns nullptr (and counts a rewrite fallback) when the
  /// table is gone: looking the table up and building its scan are one
  /// step, so a concurrent drop cannot slip in between.
  Result<PlanNodePtr> BuildReplacement(const PlanNode& original,
                                       const std::string& view_table) const;

  const Catalog* catalog_;
};

}  // namespace autoview
