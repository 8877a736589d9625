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
/// Two equivalent implementations coexist deliberately:
///   * RewriteAll — the original per-view sequential loop (one plan walk
///     per view, CanonicalKey recomputed at every node). O(plan × views)
///     but trivially auditable; kept as the bit-identity oracle.
///   * RewriteAllIndexed — a single bottom-up walk that computes each
///     node's canonical key exactly once (CanonicalKeyWithChildren),
///     probes a ViewIndex, and replays the oracle's match order
///     (ascending view id, pre-order within a view) with interval
///     blocking. O(plan + matches); produces the *identical* plan —
///     tests/rewrite_fast_path_test.cc EXPECT_EQs the two across
///     seeds × view counts × generations.
class Rewriter {
 public:
  /// `catalog` must contain the views' backing tables.
  explicit Rewriter(const Catalog* catalog) : catalog_(catalog) {}

  /// Rewrites `plan` with a single view. `*changed` reports whether any
  /// substitution happened (it is set to false otherwise). A view whose
  /// backing table has been concurrently evicted/dropped is skipped —
  /// the matched subtree keeps its base-table form and the fallback is
  /// counted in GlobalRobustness() — so rewriting never produces a plan
  /// that scans a missing table. Callers on concurrent paths should
  /// still pin the views (MaterializedViewStore::PinLive) so matched
  /// descriptors stay readable.
  Result<PlanNodePtr> Rewrite(const PlanNodePtr& plan,
                              const MaterializedView& view,
                              bool* changed) const;

  /// Applies several views (already chosen to be non-overlapping by the
  /// selector) in order. Substitutions by an earlier view hide the
  /// subtrees an overlapping later view would have matched.
  Result<PlanNodePtr> RewriteAll(
      const PlanNodePtr& plan,
      const std::vector<const MaterializedView*>& views,
      size_t* num_substitutions) const;

  /// Single-walk equivalent of RewriteAll over the views indexed in
  /// `index` (which must index exactly the views RewriteAll would be
  /// given, in ascending-id order — MaterializedViewStore maintains
  /// this). `*num_substitutions` (optional) gets the distinct-views-
  /// substituted count RewriteAll reports; `*used_view_ids` (optional)
  /// gets those views' ids ascending, so callers can pin exactly the
  /// views the plan scans before executing it.
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
  Result<PlanNodePtr> RewriteNode(const PlanNodePtr& node,
                                  const MaterializedView& view,
                                  bool* changed) const;

  /// Builds Scan(view backing table) [+ Project] matching `original`'s
  /// output. Returns nullptr (and counts a rewrite fallback) when the
  /// table is gone: looking the table up and building its scan are one
  /// step, so a concurrent drop cannot slip in between.
  Result<PlanNodePtr> BuildReplacement(const PlanNode& original,
                                       const std::string& view_table) const;

  const Catalog* catalog_;
};

}  // namespace autoview
