#pragma once

#include <string>
#include <vector>

#include "catalog/value.h"

namespace autoview {

struct SelectStmt;

/// \brief Kinds of AST expressions in the supported SQL fragment.
enum class AstExprKind {
  kColumnRef,  // [qualifier.]name
  kLiteral,    // 42, 3.14, 'abc'
  kCompare,    // a = b, a < b, ...
  kAnd,
  kOr,
  kNot,
  kAggCall,  // COUNT(*), SUM(col), ...
  kStar,     // bare * in a select list
};

/// \brief Untyped syntax-tree expression node.
///
/// Every node of one parse lives in that parse's AstArena; the links
/// between nodes are plain pointers into it.
struct AstExpr {
  AstExprKind kind = AstExprKind::kLiteral;
  std::string qualifier;  // column ref table/alias qualifier (may be empty)
  std::string name;       // column name
  Value literal;
  std::string op;  // compare operator ("=", "<", ...) or agg name ("COUNT")
  std::vector<AstExpr*> children;

  /// Re-renders the expression as SQL text.
  std::string ToString() const;
};

using AstExprPtr = AstExpr*;

/// \brief One SELECT-list entry.
struct SelectItem {
  AstExprPtr expr;
  std::string alias;  // empty when none given
};

/// \brief A FROM-clause source: a base table or a derived table.
struct TableRef {
  std::string table;                // base table name, or empty
  SelectStmt* subquery = nullptr;   // derived table, or null
  std::string alias;                // may be empty for base tables

  bool is_subquery() const { return subquery != nullptr; }
};

/// \brief One `INNER JOIN <ref> ON <cond>` clause.
struct JoinClause {
  TableRef right;
  AstExprPtr condition;
};

/// \brief One ORDER BY key.
struct OrderKey {
  AstExprPtr column;
  bool descending = false;
};

/// \brief A parsed SELECT statement (the SPJA fragment of Fig. 2, plus
/// DISTINCT / ORDER BY / LIMIT).
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  AstExprPtr where;                 // null when absent
  std::vector<AstExprPtr> group_by; // column refs
  std::vector<OrderKey> order_by;
  int64_t limit = -1;               // -1 when absent

  /// Re-renders the statement as SQL text.
  std::string ToString() const;
};

/// \brief Owns every node of one parse. ParseSelect() returns the root
/// statement as a shared_ptr aliasing the arena, so the root keeps the
/// whole tree alive; hold it while using any node.
///
/// Both vectors are reserved up front for the most nodes the token
/// stream can produce and never reallocate, so node addresses are
/// stable and a parse costs a few allocations instead of one per node.
struct AstArena {
  std::vector<AstExpr> exprs;
  std::vector<SelectStmt> stmts;
};

}  // namespace autoview
