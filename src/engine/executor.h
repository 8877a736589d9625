#pragma once

#include "engine/cost.h"
#include "engine/database.h"
#include "engine/table.h"
#include "plan/plan.h"
#include "util/status.h"

namespace autoview {

/// \brief Result of executing a logical plan: the output table and the
/// deterministic cost report.
struct ExecResult {
  Table table;
  CostReport cost;
};

/// \brief Executes logical plans against a Database with cost metering.
///
/// Operators: table scan, filter, projection, inner hash join (with a
/// nested-loop fallback when the ON clause has no equi-key), hash
/// aggregation, sort, limit and distinct. All work is charged to a
/// CostReport using CostConstants, giving bit-reproducible costs for a
/// given plan and data: cpu_units are charged per logical row, so they do
/// not depend on the physical row layout or key representation.
///
/// Operators hand each other rows without copying them where they can.
/// A scan reads the stored table in place. A filter over it passes on
/// the table plus a selection: the positions of the rows that pass, in
/// order. A filter over owned rows (a join's or an aggregate's output)
/// keeps the passing rows and frees the rest. Project, join, aggregate,
/// distinct, sort and limit read their input through the selection, so
/// a row is copied only when an operator builds a new one (a projected
/// or joined row, a group, a sorted run).
/// Execute copies the root's selected rows out; ExecuteForCost only
/// counts them.
///
/// A filter predicate, and a join's non-equi conjuncts, are bound once
/// per operator: each comparison of a column with a literal or another
/// column becomes a term that reads its cells in place, with the column
/// bounds checked against the input width up front. The join's residual
/// terms test the combined row. Other conjuncts (OR, NOT) are evaluated by the Expr tree. Both give
/// Value::Compare's results.
///
/// Output order of each operator:
///   * Scan — the stored table's row order.
///   * Filter, Project — input order (Filter keeps the passing rows).
///   * Join — left-major: for each left row in order, its matches in the
///     right child's row order.
///   * Aggregate — one row per group in first-seen order (the order in
///     which each group's first input row arrives).
///   * Sort — the sort keys, then the full row as a tie-break, so the
///     order does not depend on the input order.
///   * Limit — the first `limit` input rows.
///   * Distinct — the first occurrence of each row, in input order.
///
/// Keys of join, aggregate and distinct are compared with
/// Value::operator== (the equality filters use) and hashed with
/// Value::Hash(); no per-row key string is built.
class Executor {
 public:
  explicit Executor(const Database* db, CostConstants consts = CostConstants())
      : db_(db), consts_(consts) {}

  /// Executes `plan` and returns the result rows plus cost.
  Result<ExecResult> Execute(const PlanNode& plan) const;

  /// Executes and returns only the cost (result rows discarded).
  Result<CostReport> ExecuteForCost(const PlanNode& plan) const;

  const CostConstants& constants() const { return consts_; }

 private:
  /// One operator's output (defined in executor.cc).
  struct NodeResult;

  /// The CostReport of a finished plan whose root produced `root`.
  CostReport Report(const NodeResult& root, double cpu_units) const;

  Result<NodeResult> Exec(const PlanNode& node, double* cpu_units) const;
  Result<NodeResult> ExecScan(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecFilter(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecProject(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecJoin(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecAggregate(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecSort(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecLimit(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecDistinct(const PlanNode& node, double* cpu) const;

  const Database* db_;
  CostConstants consts_;
};

}  // namespace autoview
