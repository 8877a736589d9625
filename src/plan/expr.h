#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "util/status.h"

namespace autoview {

/// \brief Kinds of resolved (planned) scalar expressions.
enum class ExprKind { kColumn, kLiteral, kCompare, kAnd, kOr, kNot };

/// \brief Comparison operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Prefix-notation name of a comparison op ("EQ", "LT", ...), as used in
/// the paper's plan feature sequences (Fig. 4).
const char* CompareOpName(CompareOp op);

/// SQL spelling of a comparison op ("=", "<", ...).
const char* CompareOpSymbol(CompareOp op);

/// Whether `op` holds for a three-way comparison result `c` (negative,
/// zero or positive, as Value::Compare returns).
inline bool CompareHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// \brief A resolved scalar expression over a row of its input plan.
///
/// Column references carry both the positional index (used for
/// evaluation) and the column name (used for display and for the plan
/// feature sequences). Expressions are immutable and shared.
class Expr {
  struct Key {
    explicit Key() = default;
  };

 public:
  /// Public only for std::make_shared; use the factories below.
  explicit Expr(Key) {}

  static ExprPtr Column(size_t index, std::string name, ColumnType type);
  static ExprPtr Literal(Value v);
  static ExprPtr Compare(CompareOp op, ExprPtr left, ExprPtr right);
  static ExprPtr And(std::vector<ExprPtr> children);
  static ExprPtr Or(std::vector<ExprPtr> children);
  static ExprPtr Not(ExprPtr child);

  ExprKind kind() const { return kind_; }
  size_t column_index() const { return column_index_; }
  const std::string& column_name() const { return column_name_; }
  ColumnType column_type() const { return column_type_; }
  const Value& literal() const { return literal_; }
  CompareOp compare_op() const { return compare_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Evaluates a boolean expression against `row`; non-boolean kinds
  /// (column/literal) are not evaluable here. Comparisons read their
  /// operands in place.
  bool EvalPredicate(const std::vector<Value>& row) const;

  /// Evaluates a scalar (column or literal) against `row`: the row's cell
  /// or this node's literal, by reference.
  const Value& EvalScalar(const std::vector<Value>& row) const;

  /// Prefix rendering: `AND(EQ(dt, '1010'), EQ(memo_type, 'pen'))`.
  std::string ToPrefixString() const;

  /// Flattened prefix token list: [AND, EQ, dt, '1010', EQ, memo_type,
  /// 'pen'] — the Fig. 4 feature encoding of a condition.
  void AppendPrefixTokens(std::vector<std::string>* out) const;

  /// Structural hash (not canonicalized).
  uint64_t Hash() const;

  /// Deep structural equality.
  bool Equals(const Expr& other) const;

  /// Returns an equivalent expression with each column index `i`
  /// remapped to `mapping[i]` and renamed to `names[mapping[i]]`.
  ExprPtr RemapColumns(const std::vector<size_t>& mapping,
                       const std::vector<std::string>& names) const;

 private:
  ExprKind kind_ = ExprKind::kLiteral;
  size_t column_index_ = 0;
  std::string column_name_;
  ColumnType column_type_ = ColumnType::kInt64;
  Value literal_;
  CompareOp compare_op_ = CompareOp::kEq;
  std::vector<ExprPtr> children_;
};

/// Collects all column indices referenced by `expr` into `out` (deduped,
/// sorted).
std::vector<size_t> ReferencedColumns(const Expr& expr);

/// An error unless every column `expr` references is below `width`.
/// Allocates nothing when the columns are in range.
Status CheckColumnBounds(const Expr& expr, size_t width);

}  // namespace autoview
