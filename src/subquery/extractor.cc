#include "subquery/extractor.h"

#include "util/thread_pool.h"

namespace autoview {

std::vector<PlanNodePtr> SubqueryExtractor::Extract(
    const PlanNodePtr& query, std::vector<size_t>* positions) const {
  std::vector<PlanNodePtr> out;
  if (positions) positions->clear();
  const std::vector<PlanNodePtr> subtrees = query->Subtrees();
  for (size_t i = 0; i < subtrees.size(); ++i) {
    if (i == 0 && !options_.include_root) continue;
    const PlanNodePtr& node = subtrees[i];
    const PlanOp op = node->op();
    if (op != PlanOp::kAggregate && op != PlanOp::kJoin &&
        op != PlanOp::kProject) {
      continue;
    }
    if (node->NumOperators() < options_.min_operators) continue;
    // Subtrees() hands out the root through a non-owning alias; the
    // caller's `query` is the owning pointer to the same node.
    out.push_back(i == 0 ? query : node);
    if (positions) positions->push_back(i);
  }
  return out;
}

std::vector<std::vector<PlanNodePtr>> SubqueryExtractor::ExtractAll(
    const std::vector<PlanNodePtr>& queries, ThreadPool* pool) const {
  std::vector<std::vector<PlanNodePtr>> out(queries.size());
  ThreadPool& executor = pool ? *pool : DefaultPool();
  executor.ParallelFor(0, queries.size(),
                       [&](size_t qi) { out[qi] = Extract(queries[qi]); });
  return out;
}

}  // namespace autoview
