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
/// given plan and data: cpu_units are charged per logical row, and bytes
/// are the sum of Value::ByteSize() over the cells, so neither depends
/// on the physical layout or key representation.
///
/// Tables store typed columns (see Column), and operators hand each other
/// column references plus a selection: the positions of the rows they
/// hold, in output order. A scan references the stored table's columns.
/// A filter narrows the selection; project references its input's
/// columns; sort reorders the selection, and limit and distinct shorten
/// it. Only join and aggregate make columns (and project, one repeated
/// column per literal item). A join emits (left
/// position, right position) pairs and gathers the cells of the columns
/// an operator above it (or Execute's result) reads; a column of numbers
/// that nothing above reads is not gathered, since its byte size is 8 a
/// cell. An aggregate gathers its group keys from each group's first
/// row. Execute gathers the root's selected rows into its result table;
/// ExecuteForCost only counts them.
///
/// A filter predicate, and a join's non-equi conjuncts, are bound once
/// per operator over the columns they read: a comparison of a column with
/// a literal or another column becomes a loop over the selection, typed
/// when the column holds one type. AND narrows the selection; OR, NOT
/// and comparisons of two literals combine or keep it. A join tests its
/// residual conjuncts on the cells of its candidate pairs. Every
/// comparison gives CompareCells' (that is, Value::Compare's) result.
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
/// Keys of join, aggregate and distinct are compared with CompareCells
/// (the equality filters use, so int 3 matches double 3.0) and hashed
/// with HashCell(); an int64 key column is read slot by slot, and no
/// per-row key is built. An aggregate finds each row's group, then makes
/// one pass per aggregate item, typed by the item's column.
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

  /// One flag per output column of a plan node: whether an operator
  /// above it, or Execute's result, reads that column's cells.
  using ColumnMask = std::vector<bool>;

  /// The CostReport of a finished plan whose root produced `root`.
  CostReport Report(const NodeResult& root, double cpu_units) const;

  Result<NodeResult> Exec(const PlanNode& node, const ColumnMask& needed,
                          double* cpu) const;
  Result<NodeResult> ExecScan(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecFilter(const PlanNode& node, const ColumnMask& needed,
                                double* cpu) const;
  Result<NodeResult> ExecProject(const PlanNode& node,
                                 const ColumnMask& needed, double* cpu) const;
  Result<NodeResult> ExecJoin(const PlanNode& node, const ColumnMask& needed,
                              double* cpu) const;
  Result<NodeResult> ExecAggregate(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecSort(const PlanNode& node, double* cpu) const;
  Result<NodeResult> ExecLimit(const PlanNode& node, const ColumnMask& needed,
                               double* cpu) const;
  Result<NodeResult> ExecDistinct(const PlanNode& node, double* cpu) const;

  const Database* db_;
  CostConstants consts_;
};

}  // namespace autoview
