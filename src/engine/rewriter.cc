#include "engine/rewriter.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "plan/canonical.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace autoview {

namespace {

/// Rebuilds `node` with `children` substituted for its original
/// children (same op, same parameters).
Result<PlanNodePtr> RebuildWithChildren(const PlanNode& node,
                                        std::vector<PlanNodePtr> children) {
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
      // MakeAggregate re-derives input names; copy the agg items fresh.
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

/// One node of the pre-order walk RewriteAllIndexed performs. Nodes are
/// addressed by pre-order position, not pointer: plan subtrees are
/// shared shared_ptrs (DAG in memory, tree semantics), so one PlanNode
/// can occupy several distinct tree positions.
struct IndexedNode {
  const PlanNode* node = nullptr;
  PlanNodePtr node_ptr;
  size_t exit = 0;  ///< one past the last pre-order position in the subtree
  std::vector<size_t> child_pos;
};

/// One (view, node) canonical-key match found by probing the index.
struct MatchEvent {
  int64_t view_id = 0;
  size_t enter = 0;
  size_t exit = 0;
  std::string table_name;
};

}  // namespace

Result<PlanNodePtr> Rewriter::RewriteAllIndexed(
    const PlanNodePtr& plan, const ViewIndex& index, size_t* num_substitutions,
    std::vector<int64_t>* used_view_ids) const {
  if (num_substitutions) *num_substitutions = 0;
  if (used_view_ids) used_view_ids->clear();

  // Pass 1: one bottom-up walk computing every node's canonical key
  // exactly once (composed from child keys) and probing the index.
  std::vector<IndexedNode> nodes;
  std::vector<MatchEvent> events;
  std::vector<ViewIndex::Candidate> candidates;
  std::function<std::string(const PlanNodePtr&)> walk =
      [&](const PlanNodePtr& n) -> std::string {
    const size_t pos = nodes.size();
    nodes.push_back(IndexedNode{n.get(), n, 0, {}});
    std::vector<std::string> child_keys;
    child_keys.reserve(n->children().size());
    for (const auto& child : n->children()) {
      nodes[pos].child_pos.push_back(nodes.size());
      child_keys.push_back(walk(child));
    }
    const std::string key = CanonicalKeyWithChildren(*n, child_keys);
    nodes[pos].exit = nodes.size();
    if (index.Probe(key, &candidates)) {
      for (const auto& c : candidates) {
        events.push_back(MatchEvent{c.id, pos, nodes[pos].exit, c.table_name});
      }
    }
    return key;
  };
  walk(plan);

  if (events.empty()) return plan;

  // Pass 2: replay the sequential loop's decisions. The oracle applies
  // views ascending by id (snapshot order), each as a top-down walk of
  // the then-current plan that stops at the first match on a path. On
  // the original plan that is: process match events sorted by (view id,
  // pre-order position); an event "fires" unless an already-accepted
  // substitution overlaps its subtree — an ancestor-or-self acceptance
  // removed the node from the current tree, a descendant acceptance
  // changed its key — or an earlier fallback of the *same* view covers
  // it (the oracle stops recursing at a matched-but-missing view, so
  // deeper same-view matches are never visited). A fired event with the
  // backing table present is an accepted substitution; with the table
  // missing (evicted/dropped concurrently) it records a rewrite
  // fallback, exactly like the oracle, and blocks nothing globally. The
  // replacement scan is built right here, in the same step that decides
  // the table exists: a check now and a scan build later would let a
  // concurrent drop in between turn into a NotFound for the request.
  std::sort(events.begin(), events.end(),
            [](const MatchEvent& a, const MatchEvent& b) {
              if (a.view_id != b.view_id) return a.view_id < b.view_id;
              return a.enter < b.enter;
            });

  std::map<size_t, size_t> accepted;  // enter -> exit; pairwise disjoint
  std::unordered_map<size_t, PlanNodePtr> replacements;  // enter -> scan
  const auto blocked = [&accepted](size_t enter, size_t exit) {
    auto it = accepted.upper_bound(enter);
    if (it != accepted.begin()) {
      auto prev = std::prev(it);
      if (prev->second > enter) return true;  // ancestor-or-self accepted
    }
    return it != accepted.end() && it->first < exit;  // descendant accepted
  };

  int64_t current_view = 0;
  bool have_view = false;
  bool view_counted = false;
  // Fired fallbacks of the current view are disjoint and processed in
  // ascending pre-order, so containment only ever involves the latest.
  size_t fallback_exit = 0;
  size_t fallback_enter = 0;
  bool have_fallback = false;
  for (const MatchEvent& event : events) {
    if (!have_view || event.view_id != current_view) {
      current_view = event.view_id;
      have_view = true;
      view_counted = false;
      have_fallback = false;
    }
    if (blocked(event.enter, event.exit)) continue;
    if (have_fallback && event.enter >= fallback_enter &&
        event.enter < fallback_exit) {
      continue;  // inside a subtree the oracle stopped recursing into
    }
    AV_ASSIGN_OR_RETURN(
        PlanNodePtr replacement,
        BuildReplacement(*nodes[event.enter].node, event.table_name));
    if (!replacement) {
      // Matched, but the backing table is gone: keep the base-table
      // subtree.
      have_fallback = true;
      fallback_enter = event.enter;
      fallback_exit = event.exit;
      continue;
    }
    accepted.emplace(event.enter, event.exit);
    replacements.emplace(event.enter, std::move(replacement));
    if (!view_counted) {
      view_counted = true;
      if (num_substitutions) ++*num_substitutions;
      if (used_view_ids) used_view_ids->push_back(event.view_id);
    }
  }

  if (accepted.empty()) return plan;

  // Pass 3: one reconstruction applying every accepted substitution.
  // Accepted intervals are disjoint, so each replacement was built from
  // the ORIGINAL subtree — the same input BuildReplacement sees in the
  // sequential loop. Subtrees without an accepted substitution are
  // reused as-is (shared_ptr), identical to the oracle's no-change
  // short-circuit.
  std::function<Result<PlanNodePtr>(size_t)> rebuild =
      [&](size_t pos) -> Result<PlanNodePtr> {
    const IndexedNode& info = nodes[pos];
    auto acc = replacements.find(pos);
    if (acc != replacements.end()) return acc->second;
    auto inside = accepted.lower_bound(pos);
    if (inside == accepted.end() || inside->first >= info.exit) {
      return info.node_ptr;  // nothing accepted in this subtree
    }
    std::vector<PlanNodePtr> new_children;
    new_children.reserve(info.child_pos.size());
    for (size_t child : info.child_pos) {
      AV_ASSIGN_OR_RETURN(PlanNodePtr rebuilt, rebuild(child));
      new_children.push_back(std::move(rebuilt));
    }
    return RebuildWithChildren(*info.node, std::move(new_children));
  };
  return rebuild(0);
}

Result<ServingRewrite> Rewriter::RewriteServing(
    const PlanNodePtr& plan, MaterializedViewStore* store) const {
  if (!plan) return Status::InvalidArgument("null plan");
  if (store == nullptr) return Status::InvalidArgument("null store");
  RewriteCache& cache = store->rewrite_cache();
  const std::string key = CanonicalKey(*plan);
  const uint64_t generation = store->current_generation();

  RewriteCache::CachedRewrite cached;
  if (cache.Lookup(key, generation, &cached)) {
    Result<ViewSetSnapshot> pins = store->PinViews(cached.view_ids);
    if (pins.ok()) {
      GlobalRewriteCache().RecordHit();
      ServingRewrite out;
      out.plan = std::move(cached.plan);
      out.num_substitutions = cached.num_substitutions;
      out.pins = std::move(pins).value();
      out.cache_hit = true;
      return out;
    }
    // A cached view was evicted within this generation: heal the entry
    // and fall through to a fresh walk.
    GlobalRewriteCache().RecordPinFailure();
    cache.Erase(key, generation);
  }
  GlobalRewriteCache().RecordMiss();

  // Indexed walk, then pin exactly the substituted views. A view can be
  // evicted between the probe and the pin; retry the walk (the index no
  // longer lists it) a few times before conceding to the base tables.
  constexpr int kMaxIndexedAttempts = 3;
  for (int attempt = 0; attempt < kMaxIndexedAttempts; ++attempt) {
    const uint64_t walk_generation = store->current_generation();
    size_t num_substitutions = 0;
    std::vector<int64_t> used_view_ids;
    AV_ASSIGN_OR_RETURN(PlanNodePtr rewritten,
                        RewriteAllIndexed(plan, store->view_index(),
                                          &num_substitutions, &used_view_ids));
    if (AV_FAILPOINT("rewriter.pin") == FailAction::kError) continue;
    Result<ViewSetSnapshot> pins = store->PinViews(used_view_ids);
    if (!pins.ok()) continue;
    // Cache under the generation the walk ran against; entries from a
    // generation that swapped mid-walk are unreachable by construction
    // (lookups use the current generation) and swept by CommitSwap.
    RewriteCache::CachedRewrite entry;
    entry.plan = rewritten;
    entry.num_substitutions = num_substitutions;
    entry.view_ids = used_view_ids;
    cache.Insert(key, walk_generation, std::move(entry));
    ServingRewrite out;
    out.plan = std::move(rewritten);
    out.num_substitutions = num_substitutions;
    out.pins = std::move(pins).value();
    out.cache_hit = false;
    return out;
  }

  // The store is churning faster than we can pin: serve the query from
  // its base tables, the same answer a vanished view degrades to.
  GlobalRobustness().RecordRewriteFallback();
  ServingRewrite out;
  out.plan = plan;
  return out;
}

Result<PlanNodePtr> Rewriter::BuildReplacement(
    const PlanNode& original, const std::string& view_table) const {
  Result<PlanNodePtr> made = PlanNode::MakeScan(*catalog_, view_table);
  if (!made.ok()) {
    if (made.status().code() != StatusCode::kNotFound) return made.status();
    // The view was evicted or dropped concurrently: count the
    // degradation (see GlobalRobustness()); the caller keeps the
    // base-table subtree.
    GlobalRobustness().RecordRewriteFallback();
    return PlanNodePtr();
  }
  PlanNodePtr scan = std::move(made).value();
  // Map the original subtree's output columns onto the view's columns by
  // name (canonical equivalence guarantees the same named column set).
  // The name -> index map keeps wide schemas linear; on duplicate names
  // the first occurrence wins, matching the nested scan this replaced.
  std::unordered_map<std::string, size_t> scan_index;
  scan_index.reserve(scan->output().size());
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

}  // namespace autoview
