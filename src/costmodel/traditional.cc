#include "costmodel/traditional.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

namespace autoview {

const ColumnStats* CardinalityEstimator::ResolveColumn(const PlanNode& node,
                                                       size_t index) const {
  switch (node.op()) {
    case PlanOp::kTableScan: {
      const TableStats& stats = catalog_->GetStats(node.table());
      return index < stats.columns.size() ? &stats.columns[index] : nullptr;
    }
    case PlanOp::kFilter:
      return ResolveColumn(*node.child(0), index);
    case PlanOp::kProject: {
      const auto& item = node.projections()[index];
      if (item.expr->kind() != ExprKind::kColumn) return nullptr;
      return ResolveColumn(*node.child(0), item.expr->column_index());
    }
    case PlanOp::kJoin: {
      const size_t left_width = node.child(0)->num_output_columns();
      return index < left_width
                 ? ResolveColumn(*node.child(0), index)
                 : ResolveColumn(*node.child(1), index - left_width);
    }
    case PlanOp::kAggregate:
      if (index < node.group_by().size()) {
        return ResolveColumn(*node.child(0), node.group_by()[index]);
      }
      return nullptr;  // aggregate outputs have no base column
    case PlanOp::kSort:
    case PlanOp::kLimit:
    case PlanOp::kDistinct:
      return ResolveColumn(*node.child(0), index);
  }
  return nullptr;
}

double CardinalityEstimator::DistinctOf(const PlanNode& node,
                                        size_t index) const {
  const ColumnStats* stats = ResolveColumn(node, index);
  return stats && stats->distinct_count > 0 ? stats->distinct_count : 1.0;
}

double CardinalityEstimator::EstimateSelectivity(const Expr& pred,
                                                 const PlanNode& input) const {
  switch (pred.kind()) {
    case ExprKind::kAnd: {
      double s = 1.0;  // independence assumption
      for (const auto& child : pred.children()) {
        s *= EstimateSelectivity(*child, input);
      }
      return s;
    }
    case ExprKind::kOr: {
      double keep = 1.0;  // inclusion-exclusion under independence
      for (const auto& child : pred.children()) {
        keep *= 1.0 - EstimateSelectivity(*child, input);
      }
      return 1.0 - keep;
    }
    case ExprKind::kNot:
      return 1.0 - EstimateSelectivity(*pred.children()[0], input);
    case ExprKind::kCompare: {
      const Expr* lhs = pred.children()[0].get();
      const Expr* rhs = pred.children()[1].get();
      CompareOp op = pred.compare_op();
      if (lhs->kind() == ExprKind::kLiteral &&
          rhs->kind() == ExprKind::kColumn) {
        std::swap(lhs, rhs);
        switch (op) {
          case CompareOp::kLt: op = CompareOp::kGt; break;
          case CompareOp::kLe: op = CompareOp::kGe; break;
          case CompareOp::kGt: op = CompareOp::kLt; break;
          case CompareOp::kGe: op = CompareOp::kLe; break;
          default: break;
        }
      }
      if (lhs->kind() == ExprKind::kColumn &&
          rhs->kind() == ExprKind::kLiteral) {
        const ColumnStats* stats = ResolveColumn(input, lhs->column_index());
        const Value& lit = rhs->literal();
        const double distinct =
            stats && stats->distinct_count > 0 ? stats->distinct_count : 10.0;
        const bool numeric = !lit.is_string();
        const bool has_hist =
            stats && !stats->histogram.bucket_counts.empty() && numeric;
        switch (op) {
          case CompareOp::kEq:
            return has_hist ? stats->histogram.EqualitySelectivity(
                                  lit.AsDouble(), distinct)
                            : 1.0 / distinct;
          case CompareOp::kNe:
            return 1.0 - (has_hist ? stats->histogram.EqualitySelectivity(
                                         lit.AsDouble(), distinct)
                                   : 1.0 / distinct);
          case CompareOp::kLt:
            return has_hist
                       ? stats->histogram.LessThanSelectivity(lit.AsDouble())
                       : 0.33;
          case CompareOp::kLe:
            return has_hist ? std::min(
                                  1.0,
                                  stats->histogram.LessThanSelectivity(
                                      lit.AsDouble()) +
                                      stats->histogram.EqualitySelectivity(
                                          lit.AsDouble(), distinct))
                            : 0.33;
          case CompareOp::kGt:
          case CompareOp::kGe:
            return has_hist ? 1.0 - stats->histogram.LessThanSelectivity(
                                        lit.AsDouble())
                            : 0.33;
        }
      }
      if (lhs->kind() == ExprKind::kColumn &&
          rhs->kind() == ExprKind::kColumn && op == CompareOp::kEq) {
        const double d1 = DistinctOf(input, lhs->column_index());
        const double d2 = DistinctOf(input, rhs->column_index());
        return 1.0 / std::max({d1, d2, 1.0});
      }
      return 0.33;  // default selectivity for opaque predicates
    }
    default:
      return 1.0;
  }
}

double CardinalityEstimator::RowsFromChildren(const PlanNode& plan,
                                              double child0,
                                              double child1) const {
  switch (plan.op()) {
    case PlanOp::kTableScan:
      return static_cast<double>(catalog_->GetStats(plan.table()).row_count);
    case PlanOp::kFilter:
      return child0 * EstimateSelectivity(*plan.predicate(), *plan.child(0));
    case PlanOp::kProject:
      return child0;
    case PlanOp::kJoin: {
      // Combined row used only for column resolution of the condition.
      double sel = EstimateSelectivity(*plan.join_condition(), plan);
      return std::max(1.0, child0 * child1 * sel);
    }
    case PlanOp::kAggregate: {
      if (plan.group_by().empty()) return 1.0;
      double groups = 1.0;
      for (size_t g : plan.group_by()) {
        groups *= DistinctOf(*plan.child(0), g);
      }
      return std::min(child0, groups);
    }
    case PlanOp::kSort:
      return child0;
    case PlanOp::kLimit:
      return std::min(child0, static_cast<double>(plan.limit()));
    case PlanOp::kDistinct: {
      double groups = 1.0;
      for (size_t c = 0; c < plan.num_output_columns(); ++c) {
        groups *= DistinctOf(*plan.child(0), c);
      }
      return std::min(child0, groups);
    }
  }
  return 1.0;
}

double CardinalityEstimator::EstimateRows(const PlanNode& plan) const {
  const auto& children = plan.children();
  const double child0 = children.empty() ? 0.0 : EstimateRows(*children[0]);
  const double child1 = children.size() < 2 ? 0.0 : EstimateRows(*children[1]);
  return RowsFromChildren(plan, child0, child1);
}

double CardinalityEstimator::BytesFromRows(
    const PlanNode& plan, double rows,
    const std::vector<const std::string*>& tables) const {
  // Average row width from the scanned base tables, scaled by the
  // fraction of columns this plan outputs.
  double total_bytes = 0, total_rows = 0, total_cols = 0;
  for (const std::string* table : tables) {
    const TableStats& stats = catalog_->GetStats(*table);
    total_bytes += static_cast<double>(stats.byte_size);
    total_rows += static_cast<double>(stats.row_count);
    auto schema = catalog_->GetTable(*table);
    if (schema.ok()) {
      total_cols += static_cast<double>(schema.value()->num_columns());
    }
  }
  const double avg_cell = total_rows > 0 && total_cols > 0
                              ? total_bytes / total_rows / total_cols
                              : 8.0;
  return rows * avg_cell * static_cast<double>(plan.num_output_columns());
}

double CardinalityEstimator::EstimateBytes(const PlanNode& plan) const {
  const std::vector<std::string> tables = plan.ScannedTables();
  std::vector<const std::string*> names;
  names.reserve(tables.size());
  for (const std::string& table : tables) names.push_back(&table);
  return BytesFromRows(plan, EstimateRows(plan), names);
}

namespace {

/// One node's terms from the bottom-up walk.
struct SubtreeEstimate {
  double rows = 0.0;
  double cpu_units = 0.0;  ///< the whole subtree's estimated cpu units
  /// Distinct scanned base tables, ascending by name (ScannedTables()).
  std::vector<const std::string*> tables;
};

/// Bottom-up walk pricing every node once. Mirrors Executor's
/// per-operator charging with estimated cardinalities: a node's units
/// are its own charge plus its children's subtree units, added in child
/// order. `bytes` receives each node's estimated output bytes in
/// Subtrees() pre-order.
SubtreeEstimate EstimateSubtree(const CardinalityEstimator& card,
                                const CostConstants& consts,
                                const PlanNode& plan,
                                std::vector<double>* bytes) {
  const size_t slot = bytes->size();
  bytes->push_back(0.0);
  std::vector<SubtreeEstimate> children;
  children.reserve(plan.children().size());
  for (const auto& child : plan.children()) {
    children.push_back(EstimateSubtree(card, consts, *child, bytes));
  }
  const double child0 = children.empty() ? 0.0 : children[0].rows;
  const double child1 = children.size() < 2 ? 0.0 : children[1].rows;

  SubtreeEstimate est;
  est.rows = card.RowsFromChildren(plan, child0, child1);
  switch (plan.op()) {
    case PlanOp::kTableScan:
      est.cpu_units = consts.scan_row * est.rows;
      break;
    case PlanOp::kFilter:
      est.cpu_units = consts.filter_row * child0;
      break;
    case PlanOp::kProject:
      est.cpu_units = consts.project_row * child0;
      break;
    case PlanOp::kJoin:
      est.cpu_units = consts.join_build_row * child1 +
                      consts.join_probe_row * child0 +
                      consts.join_output_row * est.rows;
      break;
    case PlanOp::kAggregate:
      est.cpu_units = consts.agg_update_row * child0 +
                      consts.agg_output_row * est.rows;
      break;
    case PlanOp::kSort:
      est.cpu_units = consts.sort_row * child0 * std::log2(child0 + 2.0);
      break;
    case PlanOp::kLimit:
      est.cpu_units = consts.limit_row * est.rows;
      break;
    case PlanOp::kDistinct:
      est.cpu_units = consts.distinct_row * child0;
      break;
  }
  for (const auto& child : children) est.cpu_units += child.cpu_units;

  if (plan.op() == PlanOp::kTableScan) {
    est.tables.push_back(&plan.table());
  } else if (children.size() == 1) {
    est.tables = std::move(children[0].tables);
  } else if (children.size() == 2) {
    const auto by_name = [](const std::string* a, const std::string* b) {
      return *a < *b;
    };
    std::set_union(children[0].tables.begin(), children[0].tables.end(),
                   children[1].tables.begin(), children[1].tables.end(),
                   std::back_inserter(est.tables), by_name);
  }
  (*bytes)[slot] = card.BytesFromRows(plan, est.rows, est.tables);
  return est;
}

}  // namespace

double TraditionalEstimator::EstimatePlanCost(const PlanNode& plan) const {
  std::vector<double> bytes;
  CostReport report;
  report.cpu_units =
      EstimateSubtree(cardinality_, pricing_.consts, plan, &bytes).cpu_units;
  // Peak memory approximated by the largest estimated intermediate.
  double peak = 0.0;
  for (const double b : bytes) peak = std::max(peak, b);
  report.peak_bytes = peak;
  // Model the engine's spill penalty with the *estimated* peak; the
  // cardinality error feeds through the nonlinearity, which is where
  // this baseline's error amplification comes from.
  report.cpu_units *= pricing_.consts.SpillMultiplier(peak);
  return pricing_.QueryCost(report);
}

double TraditionalEstimator::EstimateViewScanCost(
    const PlanNode& view_plan) const {
  CostReport report;
  report.cpu_units =
      pricing_.consts.scan_row * cardinality_.EstimateRows(view_plan);
  report.peak_bytes = cardinality_.EstimateBytes(view_plan);
  return pricing_.QueryCost(report);
}

double TraditionalEstimator::Estimate(const CostSample& sample) const {
  const double q = EstimatePlanCost(*sample.query);
  const double s = EstimatePlanCost(*sample.view);
  const double v = EstimateViewScanCost(*sample.view);
  return std::max(0.0, q - s + v);
}

}  // namespace autoview
