#include "subquery/extractor.h"

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

}  // namespace autoview
