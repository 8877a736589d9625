#include "plan/canonical.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "util/logging.h"
#include "util/strings.h"

namespace autoview {

namespace {

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

/// Exact literal rendering: Value::ToString formats doubles with %g,
/// which maps distinct values (1.0000001 and 1.0000002) to one string.
/// Integral doubles render like the equal int64 (3 and 3.0 stay one key,
/// as they compare equal); every other double uses the shortest string
/// that round-trips, so distinct values never share a key.
std::string LiteralKey(const Value& value) {
  if (!value.is_double()) return value.ToString();
  const double d = value.AsDouble();
  if (d == std::floor(d) && std::fabs(d) < 9e15) {
    return std::to_string(static_cast<int64_t>(d));
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), d);
  return std::string(buf, result.ptr);
}

/// Appends the keys of `node`'s subtree to `keys` in pre-order.
void AppendSubtreeKeys(const PlanNode& node, std::vector<std::string>* keys) {
  const size_t pos = keys->size();
  keys->emplace_back();
  std::vector<std::string> child_keys;
  child_keys.reserve(node.children().size());
  for (const auto& child : node.children()) {
    const size_t child_pos = keys->size();
    AppendSubtreeKeys(*child, keys);
    child_keys.push_back((*keys)[child_pos]);
  }
  (*keys)[pos] = CanonicalKeyWithChildren(node, child_keys);
}

}  // namespace

std::string CanonicalExprKey(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kColumn:
      return "col:" + expr.column_name();
    case ExprKind::kLiteral:
      return "lit:" + LiteralKey(expr.literal());
    case ExprKind::kCompare: {
      std::string l = CanonicalExprKey(*expr.children()[0]);
      std::string r = CanonicalExprKey(*expr.children()[1]);
      CompareOp op = expr.compare_op();
      // Orient inequalities so the lexicographically smaller operand
      // comes first; symmetric ops just sort operands.
      if (op == CompareOp::kEq || op == CompareOp::kNe) {
        if (r < l) std::swap(l, r);
      } else if (r < l) {
        std::swap(l, r);
        op = FlipOp(op);
      }
      return std::string(CompareOpName(op)) + "(" + l + "," + r + ")";
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<std::string> parts;
      for (const auto& child : expr.children()) {
        parts.push_back(CanonicalExprKey(*child));
      }
      std::sort(parts.begin(), parts.end());
      return (expr.kind() == ExprKind::kAnd ? std::string("AND[")
                                            : std::string("OR[")) +
             Join(parts, ",") + "]";
    }
    case ExprKind::kNot:
      return "NOT[" + CanonicalExprKey(*expr.children()[0]) + "]";
  }
  return "?";
}

std::string CanonicalKeyWithChildren(
    const PlanNode& node, const std::vector<std::string>& child_keys) {
  switch (node.op()) {
    case PlanOp::kTableScan:
      return "Scan{" + node.table() + "}";
    case PlanOp::kFilter:
      return "Filter{" + CanonicalExprKey(*node.predicate()) + "}(" +
             child_keys[0] + ")";
    case PlanOp::kProject: {
      std::vector<std::string> items;
      for (const auto& item : node.projections()) {
        items.push_back(item.name + "<-" + CanonicalExprKey(*item.expr));
      }
      std::sort(items.begin(), items.end());
      return "Project{" + Join(items, ",") + "}(" + child_keys[0] + ")";
    }
    case PlanOp::kJoin: {
      std::string l = child_keys[0];
      std::string r = child_keys[1];
      if (r < l) std::swap(l, r);  // inner joins commute
      return "Join{" + CanonicalExprKey(*node.join_condition()) + "}(" + l +
             "," + r + ")";
    }
    case PlanOp::kSort: {
      std::vector<std::string> keys;
      for (const auto& key : node.sort_keys()) {
        keys.push_back(node.child(0)->output()[key.column].name +
                       (key.descending ? ":desc" : ":asc"));
      }
      // Key order is semantically significant; do not sort.
      return "Sort{" + Join(keys, ",") + "}(" + child_keys[0] + ")";
    }
    case PlanOp::kLimit:
      return "Limit{" + std::to_string(node.limit()) + "}(" + child_keys[0] +
             ")";
    case PlanOp::kDistinct:
      return "Distinct(" + child_keys[0] + ")";
    case PlanOp::kAggregate: {
      std::vector<std::string> groups;
      for (size_t g : node.group_by()) {
        groups.push_back(node.child(0)->output()[g].name);
      }
      std::sort(groups.begin(), groups.end());
      std::vector<std::string> aggs;
      for (const auto& agg : node.aggregates()) {
        aggs.push_back(std::string(AggKindName(agg.kind)) + "(" +
                       agg.input_name + ")->" + agg.name);
      }
      std::sort(aggs.begin(), aggs.end());
      return "Agg{[" + Join(groups, ",") + "];[" + Join(aggs, ",") + "]}(" +
             child_keys[0] + ")";
    }
  }
  return "?";
}

std::string CanonicalKey(const PlanNode& node) {
  std::vector<std::string> child_keys;
  child_keys.reserve(node.children().size());
  for (const auto& child : node.children()) {
    child_keys.push_back(CanonicalKey(*child));
  }
  return CanonicalKeyWithChildren(node, child_keys);
}

std::vector<std::string> SubtreeCanonicalKeys(const PlanNode& root) {
  std::vector<std::string> keys;
  AppendSubtreeKeys(root, &keys);
  return keys;
}

bool PlansEquivalent(const PlanNode& a, const PlanNode& b) {
  return CanonicalKey(a) == CanonicalKey(b);
}

}  // namespace autoview
