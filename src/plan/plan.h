#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/expr.h"
#include "util/status.h"

namespace autoview {

/// \brief Logical plan operators (Fig. 2's plan vocabulary, plus the
/// Sort/Limit/Distinct tail operators of the extended SQL fragment).
enum class PlanOp {
  kTableScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
};

/// Display name ("Scan", "Filter", "Project", "Join", "Aggregate").
const char* PlanOpName(PlanOp op);

/// \brief Aggregate function kinds.
enum class AggKind { kCountStar, kCount, kSum, kMin, kMax, kAvg };

const char* AggKindName(AggKind kind);

/// \brief One output column of a plan node: a name and a type, the
/// same shape as a catalog column, so a scan shares its table's list.
using OutputColumn = ColumnSchema;

/// Appends `cols` to `out`, renaming each column whose name is already
/// in `out` with the first free positional suffix (user_id ->
/// user_id_2, user_id_3, ...). MakeJoin names its output this way, and
/// the planner's name resolution uses it to predict that output.
void AppendUniqueColumns(const std::vector<OutputColumn>& cols,
                         std::vector<OutputColumn>* out);

/// \brief One projection item: a scalar expression and its output name.
struct ProjectItem {
  ExprPtr expr;  // column or literal
  std::string name;
};

/// \brief One aggregate item.
struct AggItem {
  AggKind kind = AggKind::kCountStar;
  std::optional<size_t> input_column;  // none for COUNT(*)
  std::string input_name;              // display name of the input column
  std::string name;                    // output column name
};

/// \brief One ORDER BY key (column index into the child's output).
struct SortKey {
  size_t column = 0;
  bool descending = false;

  bool operator==(const SortKey&) const = default;
};

class PlanNode;
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// \brief An immutable logical plan node.
///
/// Nodes are constructed through the Make* factories, which validate the
/// inputs and compute the output schema. Subtrees are shared (plans form
/// DAGs in memory but are treated as trees). So are column lists: a scan
/// holds its catalog table's immutable list, and Filter/Sort/Limit/
/// Distinct hold their child's.
class PlanNode {
  struct Key {
    explicit Key() = default;
  };

 public:
  /// Public only for std::make_shared; use the Make* factories.
  explicit PlanNode(Key) {}

  PlanOp op() const { return op_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }
  const PlanNodePtr& child(size_t i) const { return children_[i]; }
  const std::vector<OutputColumn>& output() const { return *output_; }
  size_t num_output_columns() const { return output_->size(); }

  // Operator-specific accessors (valid only for the matching op()).
  const std::string& table() const { return table_; }
  const ExprPtr& predicate() const { return predicate_; }
  const std::vector<ProjectItem>& projections() const { return projections_; }
  const ExprPtr& join_condition() const { return predicate_; }
  const std::vector<size_t>& group_by() const { return group_by_; }
  const std::vector<AggItem>& aggregates() const { return aggregates_; }
  const std::vector<SortKey>& sort_keys() const { return sort_keys_; }
  int64_t limit() const { return limit_; }

  // --- Factories --------------------------------------------------------

  /// Scan of a catalog table.
  static Result<PlanNodePtr> MakeScan(const Catalog& catalog,
                                      const std::string& table);

  /// Filter with a boolean predicate over the child's output.
  static Result<PlanNodePtr> MakeFilter(PlanNodePtr child, ExprPtr predicate);

  /// Projection; expressions reference the child's output columns.
  static Result<PlanNodePtr> MakeProject(PlanNodePtr child,
                                         std::vector<ProjectItem> items);

  /// Inner join; `condition` references the concatenated (left ++ right)
  /// output columns. Duplicate output names are disambiguated with
  /// positional suffixes (user_id -> user_id_2).
  static Result<PlanNodePtr> MakeJoin(PlanNodePtr left, PlanNodePtr right,
                                      ExprPtr condition);

  /// Hash aggregation over the child's output.
  static Result<PlanNodePtr> MakeAggregate(PlanNodePtr child,
                                           std::vector<size_t> group_by,
                                           std::vector<AggItem> aggregates);

  /// Total-order sort by `keys` (ties broken by the full row, so the
  /// output order is independent of input order).
  static Result<PlanNodePtr> MakeSort(PlanNodePtr child,
                                      std::vector<SortKey> keys);

  /// First `limit` rows of the child.
  static Result<PlanNodePtr> MakeLimit(PlanNodePtr child, int64_t limit);

  /// Duplicate elimination over the full row.
  static Result<PlanNodePtr> MakeDistinct(PlanNodePtr child);

  // --- Inspection -------------------------------------------------------

  /// Multi-line indented rendering in the style of Fig. 2:
  ///   Aggregate(group=[{user_id_1}],cnt=[COUNT()])
  ///     Join(condition=[EQ(user_id_1, user_id_2)], joinType=[inner])
  ///     ...
  std::string ToString() const;

  /// Single-operator header line (no children).
  std::string OperatorString() const;

  /// This operator's Fig. 4 feature token sequence, e.g.
  /// [Filter, AND, EQ, dt, '1010', EQ, memo_type, 'pen'].
  std::vector<std::string> FeatureTokens() const;

  /// The whole plan as a pre-order sequence of operator token sequences
  /// (the two-dimensional sequence of §IV-A).
  std::vector<std::vector<std::string>> FeatureSequence() const;

  /// Pre-order list of all subtree roots (this node first).
  std::vector<PlanNodePtr> Subtrees() const;

  /// Structural hash of the subtree rooted here.
  uint64_t Hash() const;

  /// Deep structural equality.
  bool Equals(const PlanNode& other) const;

  /// Names of all base tables scanned in this subtree (sorted, deduped).
  std::vector<std::string> ScannedTables() const;

  /// Number of operators in the subtree (counted once, by the factory).
  size_t NumOperators() const { return num_operators_; }

  /// Height of the subtree (a single Scan has height 1; computed by the
  /// factory).
  size_t Height() const { return height_; }

 private:
  /// Allocates a node of kind `op` over the non-null children among
  /// `left`, `right`, with its operator count and height derived from
  /// theirs.
  static std::shared_ptr<PlanNode> New(PlanOp op, PlanNodePtr left = nullptr,
                                       PlanNodePtr right = nullptr);

  static void CollectSubtrees(const PlanNodePtr& node,
                              std::vector<PlanNodePtr>* out);

  PlanOp op_ = PlanOp::kTableScan;
  std::string table_;
  ExprPtr predicate_;  // filter predicate or join condition
  std::vector<ProjectItem> projections_;
  std::vector<size_t> group_by_;
  std::vector<AggItem> aggregates_;
  std::vector<SortKey> sort_keys_;
  int64_t limit_ = -1;
  std::vector<PlanNodePtr> children_;
  SharedColumns output_;  // never null once built
  size_t num_operators_ = 1;
  size_t height_ = 1;
  // Lazily computed hash cache; atomic because shared subtrees are
  // hashed concurrently from pool workers. Relaxed is enough (see
  // util/annotations.h conventions): every writer stores the same
  // idempotent value derived from immutable node state, so a racing
  // reader either sees 0 (recomputes) or the final hash — never a torn
  // or stale-wrong value. 0 doubles as the "unset" sentinel; a plan
  // whose true hash is 0 is recomputed each call, which is only a
  // (vanishingly unlikely) perf loss, never a correctness one.
  mutable std::atomic<uint64_t> cached_hash_{0};
};

}  // namespace autoview
