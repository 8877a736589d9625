#pragma once

#include <memory>
#include <string_view>

#include "sql/ast.h"
#include "util/status.h"

namespace autoview {

/// Parses one SELECT statement in the supported SQL fragment:
///
///   SELECT item[, item]*
///   FROM table_ref (INNER JOIN table_ref ON cond)*
///   [WHERE cond] [GROUP BY col[, col]*]
///
/// where table_ref is a base table or a parenthesized subquery with an
/// alias, item is `*`, a column, or an aggregate call with an optional
/// alias, and cond is an AND/OR/NOT tree of comparisons.
Result<std::shared_ptr<SelectStmt>> ParseSelect(std::string_view sql);

}  // namespace autoview
