#pragma once

// The row-at-a-time Expr evaluator: the reference that property_test's
// PredicateSemanticsP and OperatorSemanticsP hold the columnar executor
// to, and expr_test's subject. It reads a Row, one cell at a time,
// through Value::Compare.

#include "engine/table.h"
#include "plan/expr.h"
#include "util/logging.h"

namespace autoview {

/// A scalar (column or literal) against `row`: the row's cell or the
/// literal, by reference.
inline const Value& EvalScalar(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case ExprKind::kColumn:
      AV_CHECK_LT(expr.column_index(), row.size());
      return row[expr.column_index()];
    case ExprKind::kLiteral:
      return expr.literal();
    default:
      AV_CHECK(false);
      return expr.literal();
  }
}

/// A boolean expression against `row`; column and literal kinds are not
/// predicates.
inline bool EvalPredicate(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case ExprKind::kCompare:
      return CompareHolds(expr.compare_op(),
                          EvalScalar(*expr.children()[0], row)
                              .Compare(EvalScalar(*expr.children()[1], row)));
    case ExprKind::kAnd:
      for (const auto& c : expr.children()) {
        if (!EvalPredicate(*c, row)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const auto& c : expr.children()) {
        if (EvalPredicate(*c, row)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !EvalPredicate(*expr.children()[0], row);
    default:
      AV_CHECK(false);
      return false;
  }
}

}  // namespace autoview
