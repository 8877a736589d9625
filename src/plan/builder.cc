#include "plan/builder.h"

#include "sql/parser.h"
#include "util/strings.h"

namespace autoview {

namespace {

/// One FROM-clause source visible during name resolution.
struct Scope {
  std::string alias;     // alias or base-table name
  size_t start = 0;      // offset of its first column in the combined row
  PlanNodePtr node;      // the subplan providing the columns
};

/// Builder state for one SELECT level.
class StmtBuilder {
 public:
  StmtBuilder(const Catalog* catalog) : catalog_(catalog) {}

  Result<PlanNodePtr> Build(const SelectStmt& stmt) {
    scopes_.reserve(1 + stmt.joins.size());
    combined_.reserve(16);
    // 1. FROM + JOIN chain.
    AV_ASSIGN_OR_RETURN(PlanNodePtr plan, BuildTableRef(stmt.from));
    PushScope(stmt.from, plan);
    for (const auto& join : stmt.joins) {
      AV_ASSIGN_OR_RETURN(PlanNodePtr right, BuildTableRef(join.right));
      PushScope(join.right, right);
      AV_ASSIGN_OR_RETURN(ExprPtr cond, ResolveExpr(*join.condition));
      AV_ASSIGN_OR_RETURN(
          plan, PlanNode::MakeJoin(std::move(plan), right, std::move(cond)));
    }

    // 2. WHERE.
    if (stmt.where) {
      AV_ASSIGN_OR_RETURN(ExprPtr pred, ResolveExpr(*stmt.where));
      AV_ASSIGN_OR_RETURN(
          plan, PlanNode::MakeFilter(std::move(plan), std::move(pred)));
    }

    // 3. SELECT list (+ GROUP BY).
    bool has_agg = !stmt.group_by.empty();
    for (const auto& item : stmt.items) {
      if (item.expr->kind == AstExprKind::kAggCall) has_agg = true;
    }
    Result<PlanNodePtr> shaped =
        has_agg ? BuildAggregate(stmt, std::move(plan))
                : BuildProjection(stmt, std::move(plan));
    if (!shaped.ok()) return shaped;
    return ApplyTail(stmt, std::move(shaped).value());
  }

  /// DISTINCT / ORDER BY / LIMIT after the select list. ORDER BY keys
  /// resolve against the select-list output (aliases included), as in
  /// standard SQL.
  Result<PlanNodePtr> ApplyTail(const SelectStmt& stmt,
                                PlanNodePtr plan) const {
    if (stmt.distinct) {
      AV_ASSIGN_OR_RETURN(plan, PlanNode::MakeDistinct(std::move(plan)));
    }
    if (!stmt.order_by.empty()) {
      std::vector<SortKey> keys;
      keys.reserve(stmt.order_by.size());
      for (const auto& key : stmt.order_by) {
        std::optional<size_t> idx;
        for (size_t c = 0; c < plan->output().size(); ++c) {
          if (plan->output()[c].name == key.column->name) {
            idx = c;
            break;
          }
        }
        if (!idx) {
          return Status::NotFound("ORDER BY column not in select list: " +
                                  key.column->name);
        }
        keys.push_back({*idx, key.descending});
      }
      AV_ASSIGN_OR_RETURN(plan,
                          PlanNode::MakeSort(std::move(plan), std::move(keys)));
    }
    if (stmt.limit >= 0) {
      AV_ASSIGN_OR_RETURN(plan, PlanNode::MakeLimit(std::move(plan),
                                                    stmt.limit));
    }
    return plan;
  }

 private:
  void PushScope(const TableRef& ref, const PlanNodePtr& node) {
    Scope scope;
    scope.alias = !ref.alias.empty() ? ref.alias : ref.table;
    scope.start = combined_.size();
    scope.node = node;
    // MakeJoin's naming rule, so resolved expressions carry the final
    // combined-row column names.
    AppendUniqueColumns(node->output(), &combined_);
    scopes_.push_back(std::move(scope));
  }

  Result<PlanNodePtr> BuildTableRef(const TableRef& ref) {
    if (ref.is_subquery()) {
      StmtBuilder sub(catalog_);
      return sub.Build(*ref.subquery);
    }
    return PlanNode::MakeScan(*catalog_, ref.table);
  }

  /// Resolves [qualifier.]name to an index in the combined row.
  Result<size_t> ResolveColumn(const std::string& qualifier,
                               const std::string& name) const {
    if (!qualifier.empty()) {
      for (const auto& scope : scopes_) {
        if (scope.alias != qualifier) continue;
        if (auto idx = FindInScope(scope, name)) return *idx;
        return Status::NotFound("column " + qualifier + "." + name);
      }
      return Status::NotFound("unknown table alias: " + qualifier);
    }
    std::optional<size_t> found;
    for (const auto& scope : scopes_) {
      if (auto idx = FindInScope(scope, name)) {
        if (found) {
          return Status::InvalidArgument("ambiguous column: " + name);
        }
        found = *idx;
      }
    }
    if (!found) return Status::NotFound("unknown column: " + name);
    return *found;
  }

  std::optional<size_t> FindInScope(const Scope& scope,
                                    const std::string& name) const {
    const auto& cols = scope.node->output();
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].name == name) return scope.start + i;
    }
    return std::nullopt;
  }

  Result<ExprPtr> ResolveExpr(const AstExpr& ast) const {
    switch (ast.kind) {
      case AstExprKind::kColumnRef: {
        AV_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(ast.qualifier, ast.name));
        return Expr::Column(idx, combined_[idx].name, combined_[idx].type);
      }
      case AstExprKind::kLiteral:
        return Expr::Literal(ast.literal);
      case AstExprKind::kCompare: {
        AV_ASSIGN_OR_RETURN(ExprPtr l, ResolveExpr(*ast.children[0]));
        AV_ASSIGN_OR_RETURN(ExprPtr r, ResolveExpr(*ast.children[1]));
        CompareOp op;
        if (ast.op == "=") {
          op = CompareOp::kEq;
        } else if (ast.op == "<>") {
          op = CompareOp::kNe;
        } else if (ast.op == "<") {
          op = CompareOp::kLt;
        } else if (ast.op == "<=") {
          op = CompareOp::kLe;
        } else if (ast.op == ">") {
          op = CompareOp::kGt;
        } else if (ast.op == ">=") {
          op = CompareOp::kGe;
        } else {
          return Status::Unsupported("comparison op: " + ast.op);
        }
        return Expr::Compare(op, std::move(l), std::move(r));
      }
      case AstExprKind::kAnd:
      case AstExprKind::kOr: {
        std::vector<ExprPtr> kids;
        kids.reserve(ast.children.size());
        for (const auto& child : ast.children) {
          AV_ASSIGN_OR_RETURN(ExprPtr k, ResolveExpr(*child));
          kids.push_back(std::move(k));
        }
        return ast.kind == AstExprKind::kAnd ? Expr::And(std::move(kids))
                                             : Expr::Or(std::move(kids));
      }
      case AstExprKind::kNot: {
        AV_ASSIGN_OR_RETURN(ExprPtr k, ResolveExpr(*ast.children[0]));
        return Expr::Not(std::move(k));
      }
      default:
        return Status::Unsupported("expression kind not valid here");
    }
  }

  /// SELECT list without aggregation: Project (or pass-through for `*`).
  Result<PlanNodePtr> BuildProjection(const SelectStmt& stmt,
                                      PlanNodePtr plan) const {
    if (stmt.items.size() == 1 &&
        stmt.items[0].expr->kind == AstExprKind::kStar) {
      return plan;
    }
    std::vector<ProjectItem> items;
    items.reserve(stmt.items.size());
    for (const auto& item : stmt.items) {
      if (item.expr->kind == AstExprKind::kStar) {
        return Status::Unsupported("* mixed with other select items");
      }
      AV_ASSIGN_OR_RETURN(ExprPtr expr, ResolveExpr(*item.expr));
      std::string name = !item.alias.empty() ? item.alias
                         : expr->kind() == ExprKind::kColumn
                             ? expr->column_name()
                             : "expr";
      items.push_back({std::move(expr), std::move(name)});
    }
    return PlanNode::MakeProject(std::move(plan), std::move(items));
  }

  /// SELECT list with aggregation: Aggregate (+ Project for renames or
  /// reordering when needed).
  Result<PlanNodePtr> BuildAggregate(const SelectStmt& stmt,
                                     PlanNodePtr plan) const {
    std::vector<size_t> group_cols;
    group_cols.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) {
      if (g->kind != AstExprKind::kColumnRef) {
        return Status::Unsupported("GROUP BY must list columns");
      }
      AV_ASSIGN_OR_RETURN(size_t idx, ResolveColumn(g->qualifier, g->name));
      group_cols.push_back(idx);
    }

    std::vector<AggItem> aggs;
    // target[i]: the aggregate-output position select item i maps to.
    std::vector<size_t> target;
    std::vector<std::string> names;
    aggs.reserve(stmt.items.size());
    target.reserve(stmt.items.size());
    names.reserve(stmt.items.size());
    for (const auto& item : stmt.items) {
      if (item.expr->kind == AstExprKind::kAggCall) {
        AggItem agg;
        const std::string& fn = item.expr->op;
        if (fn == "COUNT" && item.expr->children.empty()) {
          agg.kind = AggKind::kCountStar;
        } else if (fn == "COUNT") {
          agg.kind = AggKind::kCount;
        } else if (fn == "SUM") {
          agg.kind = AggKind::kSum;
        } else if (fn == "MIN") {
          agg.kind = AggKind::kMin;
        } else if (fn == "MAX") {
          agg.kind = AggKind::kMax;
        } else if (fn == "AVG") {
          agg.kind = AggKind::kAvg;
        } else {
          return Status::Unsupported("aggregate: " + fn);
        }
        if (!item.expr->children.empty()) {
          const auto& col = *item.expr->children[0];
          AV_ASSIGN_OR_RETURN(size_t idx,
                              ResolveColumn(col.qualifier, col.name));
          agg.input_column = idx;
        }
        agg.name = item.alias;
        target.push_back(group_cols.size() + aggs.size());
        names.push_back(item.alias);
        aggs.push_back(std::move(agg));
      } else if (item.expr->kind == AstExprKind::kColumnRef) {
        AV_ASSIGN_OR_RETURN(
            size_t idx,
            ResolveColumn(item.expr->qualifier, item.expr->name));
        // Must be one of the group keys.
        size_t pos = group_cols.size();
        for (size_t g = 0; g < group_cols.size(); ++g) {
          if (group_cols[g] == idx) pos = g;
        }
        if (pos == group_cols.size()) {
          return Status::InvalidArgument(
              "selected column not in GROUP BY: " + item.expr->name);
        }
        target.push_back(pos);
        names.push_back(item.alias);
      } else {
        return Status::Unsupported("select item in aggregate query");
      }
    }

    AV_ASSIGN_OR_RETURN(
        PlanNodePtr agg_plan,
        PlanNode::MakeAggregate(std::move(plan), group_cols, std::move(aggs)));

    // Add a Project only if the select order/naming differs from the
    // aggregate's natural (groups..., aggs...) output.
    bool identity = target.size() == agg_plan->output().size();
    for (size_t i = 0; identity && i < target.size(); ++i) {
      identity = target[i] == i &&
                 (names[i].empty() || names[i] == agg_plan->output()[i].name);
    }
    if (identity) return agg_plan;

    std::vector<ProjectItem> items;
    items.reserve(target.size());
    for (size_t i = 0; i < target.size(); ++i) {
      const auto& col = agg_plan->output()[target[i]];
      items.push_back({Expr::Column(target[i], col.name, col.type),
                       names[i].empty() ? col.name : names[i]});
    }
    return PlanNode::MakeProject(std::move(agg_plan), std::move(items));
  }

  const Catalog* catalog_;
  std::vector<Scope> scopes_;
  std::vector<OutputColumn> combined_;
};

}  // namespace

Result<PlanNodePtr> PlanBuilder::Build(const SelectStmt& stmt) const {
  StmtBuilder builder(catalog_);
  return builder.Build(stmt);
}

Result<PlanNodePtr> PlanBuilder::BuildFromSql(const std::string& sql) const {
  AV_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  return Build(*stmt);
}

}  // namespace autoview
