// Test oracle for the rewrite step: the per-view sequential rewriter.
// Views are applied one after another, each as a top-down walk of the
// then-current plan that recomputes CanonicalKey() at every node and
// stops at the first match on a path. That is O(plan × views), but
// trivially auditable. The library's one rewrite walk
// (Rewriter::RewriteAllIndexed, behind RewriteServing) must produce the
// identical plan and substitution count when its ViewIndex holds
// exactly these views and they are given here in ascending id order.
//
// The oracle carries its own copy of the replacement builder, including
// the missing-table fallback, so the library exposes no test-only entry
// point.

#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "engine/view_store.h"
#include "plan/canonical.h"
#include "plan/plan.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/strings.h"

namespace autoview {
namespace testing {

namespace rewrite_oracle_internal {

/// `node` with `children` substituted for its original children (same
/// op, same parameters).
inline Result<PlanNodePtr> RebuildWithChildren(
    const PlanNode& node, std::vector<PlanNodePtr> children) {
  switch (node.op()) {
    case PlanOp::kTableScan:
      return Status::Internal("scan nodes have no children to rebuild");
    case PlanOp::kFilter:
      return PlanNode::MakeFilter(children[0], node.predicate());
    case PlanOp::kProject:
      return PlanNode::MakeProject(children[0], node.projections());
    case PlanOp::kJoin:
      return PlanNode::MakeJoin(children[0], children[1],
                                node.join_condition());
    case PlanOp::kAggregate: {
      std::vector<AggItem> aggs = node.aggregates();
      return PlanNode::MakeAggregate(children[0], node.group_by(),
                                     std::move(aggs));
    }
    case PlanOp::kSort:
      return PlanNode::MakeSort(children[0], node.sort_keys());
    case PlanOp::kLimit:
      return PlanNode::MakeLimit(children[0], node.limit());
    case PlanOp::kDistinct:
      return PlanNode::MakeDistinct(children[0]);
  }
  return Status::Internal("unknown plan operator");
}

/// Scan(view backing table) [+ Project] matching `original`'s output
/// columns by name. nullptr (and a counted rewrite fallback) when the
/// table is gone.
inline Result<PlanNodePtr> BuildReplacement(const Catalog& catalog,
                                            const PlanNode& original,
                                            const std::string& view_table) {
  Result<PlanNodePtr> made = PlanNode::MakeScan(catalog, view_table);
  if (!made.ok()) {
    if (made.status().code() != StatusCode::kNotFound) return made.status();
    GlobalRobustness().RecordRewriteFallback();
    return PlanNodePtr();
  }
  PlanNodePtr scan = std::move(made).value();
  std::unordered_map<std::string, size_t> scan_index;
  for (size_t j = 0; j < scan->output().size(); ++j) {
    scan_index.try_emplace(scan->output()[j].name, j);
  }
  bool identity = scan->output().size() == original.output().size();
  std::vector<ProjectItem> items;
  for (size_t i = 0; i < original.output().size(); ++i) {
    const auto& want = original.output()[i];
    auto found = scan_index.find(want.name);
    if (found == scan_index.end()) {
      return Status::Internal(
          StrFormat("view %s lacks column %s required by the subquery",
                    view_table.c_str(), want.name.c_str()));
    }
    const size_t j = found->second;
    if (j != i) identity = false;
    items.push_back(
        {Expr::Column(j, want.name, scan->output()[j].type), want.name});
  }
  if (identity) return scan;
  return PlanNode::MakeProject(std::move(scan), std::move(items));
}

}  // namespace rewrite_oracle_internal

/// Rewrites `node` with one view: the first node on each root-to-leaf
/// path whose CanonicalKey equals the view's is replaced. `*changed`
/// must start false; it becomes true when any substitution happened. A
/// view whose backing table is missing keeps the matched subtree in its
/// base-table form and is not descended into.
inline Result<PlanNodePtr> OracleRewriteNode(const Catalog& catalog,
                                             const PlanNodePtr& node,
                                             const MaterializedView& view,
                                             bool* changed) {
  if (CanonicalKey(*node) == view.canonical_key) {
    AV_ASSIGN_OR_RETURN(PlanNodePtr replacement,
                        rewrite_oracle_internal::BuildReplacement(
                            catalog, *node, view.table_name));
    if (!replacement) return node;
    *changed = true;
    return replacement;
  }
  std::vector<PlanNodePtr> new_children;
  bool any = false;
  for (const auto& child : node->children()) {
    bool child_changed = false;
    AV_ASSIGN_OR_RETURN(
        PlanNodePtr rewritten,
        OracleRewriteNode(catalog, child, view, &child_changed));
    any |= child_changed;
    new_children.push_back(std::move(rewritten));
  }
  if (!any) return node;
  *changed = true;
  return rewrite_oracle_internal::RebuildWithChildren(*node,
                                                      std::move(new_children));
}

/// Applies `views` in order; a substitution by an earlier view hides the
/// subtrees an overlapping later view would have matched.
/// `*num_substitutions` (optional) counts the views that substituted.
inline Result<PlanNodePtr> OracleRewriteAll(
    const Catalog& catalog, const PlanNodePtr& plan,
    const std::vector<const MaterializedView*>& views,
    size_t* num_substitutions) {
  if (num_substitutions) *num_substitutions = 0;
  PlanNodePtr current = plan;
  for (const MaterializedView* view : views) {
    bool changed = false;
    AV_ASSIGN_OR_RETURN(current,
                        OracleRewriteNode(catalog, current, *view, &changed));
    if (changed && num_substitutions) ++*num_substitutions;
  }
  return current;
}

}  // namespace testing
}  // namespace autoview
