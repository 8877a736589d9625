#include "sql/ast.h"

namespace autoview {

std::string AstExpr::ToString() const {
  switch (kind) {
    case AstExprKind::kColumnRef:
      return qualifier.empty() ? name : qualifier + "." + name;
    case AstExprKind::kLiteral:
      return literal.ToString();
    case AstExprKind::kCompare:
      return children[0]->ToString() + " " + op + " " + children[1]->ToString();
    case AstExprKind::kAnd: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += " AND ";
        out += children[i]->ToString();
      }
      return out;
    }
    case AstExprKind::kOr: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) out += " OR ";
        out += '(';
        out += children[i]->ToString();
        out += ')';
      }
      return out;
    }
    case AstExprKind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
    case AstExprKind::kAggCall:
      return op + "(" +
             (children.empty() ? std::string("*") : children[0]->ToString()) +
             ")";
    case AstExprKind::kStar:
      return "*";
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::string out = distinct ? "SELECT DISTINCT " : "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i].expr->ToString();
    if (!items[i].alias.empty()) out += " AS " + items[i].alias;
  }
  auto render_ref = [](const TableRef& ref) {
    std::string s;
    if (ref.is_subquery()) {
      s += '(';
      s += ref.subquery->ToString();
      s += ')';
    } else {
      s = ref.table;
    }
    if (!ref.alias.empty()) s += " " + ref.alias;
    return s;
  };
  out += " FROM " + render_ref(from);
  for (const auto& join : joins) {
    out += " INNER JOIN " + render_ref(join.right) + " ON " +
           join.condition->ToString();
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i) out += ", ";
      out += order_by[i].column->ToString();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

}  // namespace autoview
