#include "plan/expr.h"

#include <algorithm>
#include <set>

#include "util/logging.h"
#include "util/strings.h"

namespace autoview {

namespace {

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/// One past the largest column index `expr` references (0 if none).
size_t ColumnSpan(const Expr& expr) {
  if (expr.kind() == ExprKind::kColumn) return expr.column_index() + 1;
  size_t span = 0;
  for (const ExprPtr& child : expr.children()) {
    span = std::max(span, ColumnSpan(*child));
  }
  return span;
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "EQ";
    case CompareOp::kNe:
      return "NE";
    case CompareOp::kLt:
      return "LT";
    case CompareOp::kLe:
      return "LE";
    case CompareOp::kGt:
      return "GT";
    case CompareOp::kGe:
      return "GE";
  }
  return "?";
}

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

ExprPtr Expr::Column(size_t index, std::string name, ColumnType type) {
  auto e = std::make_shared<Expr>(Key());
  e->kind_ = ExprKind::kColumn;
  e->column_index_ = index;
  e->column_name_ = std::move(name);
  e->column_type_ = type;
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_shared<Expr>(Key());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>(Key());
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->children_.reserve(2);
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  return e;
}

ExprPtr Expr::And(std::vector<ExprPtr> children) {
  AV_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expr>(Key());
  e->kind_ = ExprKind::kAnd;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Or(std::vector<ExprPtr> children) {
  AV_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expr>(Key());
  e->kind_ = ExprKind::kOr;
  e->children_ = std::move(children);
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  auto e = std::make_shared<Expr>(Key());
  e->kind_ = ExprKind::kNot;
  e->children_.push_back(std::move(child));
  return e;
}

std::string Expr::ToPrefixString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return column_name_;
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kCompare:
      return std::string(CompareOpName(compare_op_)) + "(" +
             children_[0]->ToPrefixString() + ", " +
             children_[1]->ToPrefixString() + ")";
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot: {
      std::string out = kind_ == ExprKind::kAnd  ? "AND("
                        : kind_ == ExprKind::kOr ? "OR("
                                                 : "NOT(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i) out += ", ";
        out += children_[i]->ToPrefixString();
      }
      return out + ")";
    }
  }
  return "?";
}

void Expr::AppendPrefixTokens(std::vector<std::string>* out) const {
  switch (kind_) {
    case ExprKind::kColumn:
      out->push_back(column_name_);
      return;
    case ExprKind::kLiteral:
      // All literals are emitted quoted, as in the paper's Fig. 4
      // ([Filter, AND, EQ, type, '1', ...]): constants take the
      // char-level String Encoding path, which generalizes to literal
      // values never seen during training.
      if (literal_.is_string()) {
        out->push_back(literal_.ToString());
      } else {
        std::string quoted = "'";
        quoted += literal_.ToString();
        quoted += '\'';
        out->push_back(std::move(quoted));
      }
      return;
    case ExprKind::kCompare:
      out->push_back(CompareOpName(compare_op_));
      break;
    case ExprKind::kAnd:
      out->push_back("AND");
      break;
    case ExprKind::kOr:
      out->push_back("OR");
      break;
    case ExprKind::kNot:
      out->push_back("NOT");
      break;
  }
  for (const auto& c : children_) c->AppendPrefixTokens(out);
}

uint64_t Expr::Hash() const {
  uint64_t h = static_cast<uint64_t>(kind_) * 0x100000001b3ULL;
  switch (kind_) {
    case ExprKind::kColumn:
      h = HashCombine(h, std::hash<std::string>{}(column_name_));
      h = HashCombine(h, column_index_);
      break;
    case ExprKind::kLiteral:
      h = HashCombine(h, literal_.Hash());
      break;
    case ExprKind::kCompare:
      h = HashCombine(h, static_cast<uint64_t>(compare_op_));
      break;
    default:
      break;
  }
  for (const auto& c : children_) h = HashCombine(h, c->Hash());
  return h;
}

bool Expr::Equals(const Expr& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ExprKind::kColumn:
      if (column_index_ != other.column_index_ ||
          column_name_ != other.column_name_) {
        return false;
      }
      break;
    case ExprKind::kLiteral:
      if (!(literal_ == other.literal_)) return false;
      break;
    case ExprKind::kCompare:
      if (compare_op_ != other.compare_op_) return false;
      break;
    default:
      break;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->Equals(*other.children_[i])) return false;
  }
  return true;
}

std::vector<size_t> ReferencedColumns(const Expr& expr) {
  std::set<size_t> cols;
  std::vector<const Expr*> stack = {&expr};
  while (!stack.empty()) {
    const Expr* e = stack.back();
    stack.pop_back();
    if (e->kind() == ExprKind::kColumn) cols.insert(e->column_index());
    for (const auto& c : e->children()) stack.push_back(c.get());
  }
  return {cols.begin(), cols.end()};
}

Status CheckColumnBounds(const Expr& expr, size_t width) {
  if (ColumnSpan(expr) <= width) return Status::OK();
  // Error path only: name the smallest out-of-range column.
  for (size_t col : ReferencedColumns(expr)) {
    if (col >= width) {
      return Status::InvalidArgument(
          StrFormat("expression references column %zu of a %zu-column input",
                    col, width));
    }
  }
  return Status::OK();
}

}  // namespace autoview
