#pragma once

#include <string>
#include <vector>

#include "plan/plan.h"

namespace autoview {

/// \brief Canonical-form utilities standing in for EQUITAS [45].
///
/// EQUITAS decides subquery equivalence with SMT + symbolic execution.
/// For the SPJA fragment this engine supports, semantic equivalence is
/// decided by comparing canonical keys that normalize away:
///   * conjunct/disjunct order inside AND/OR predicates,
///   * comparison orientation (EQ(5, x) == EQ(x, 5); GT(a, b) == LT(b, a)),
///   * join child order (inner joins commute),
///   * projection and aggregate item order (columns are matched by name).
///
/// Two plans with equal canonical keys produce identical multisets of
/// named output columns.
///
/// Returns a canonical string key for the plan rooted at `node`.
std::string CanonicalKey(const PlanNode& node);

/// Composes `node`'s canonical key from already-canonicalized child keys
/// (one per child, in child order) without revisiting the subtrees.
/// `CanonicalKey(n)` equals `CanonicalKeyWithChildren(n, keys-of-children)`
/// by construction — the single-walk rewrite fast path relies on this to
/// compute every node's key exactly once per plan (O(plan) keys instead
/// of the O(plan²) of calling CanonicalKey at each node).
std::string CanonicalKeyWithChildren(const PlanNode& node,
                                     const std::vector<std::string>& child_keys);

/// Canonical keys of every subtree of `root`, in Subtrees() pre-order:
/// `SubtreeCanonicalKeys(root)[i] == CanonicalKey(*root.Subtrees()[i])`,
/// duplicates included. One bottom-up walk composes each key from its
/// children's with CanonicalKeyWithChildren, so the cost is the total
/// key length rather than the O(plan²) of calling CanonicalKey per node.
std::vector<std::string> SubtreeCanonicalKeys(const PlanNode& root);

/// Canonical rendering of an expression, with the normalizations above.
/// Column references are rendered by name; literals exactly (distinct
/// numeric values never share a rendering).
std::string CanonicalExprKey(const Expr& expr);

/// True iff the two plans are semantically equivalent under the
/// canonicalization rules above.
bool PlansEquivalent(const PlanNode& a, const PlanNode& b);

}  // namespace autoview
