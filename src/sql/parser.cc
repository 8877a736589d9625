#include "sql/parser.h"

#include <charconv>
#include <string_view>

#include "sql/token.h"
#include "util/logging.h"

namespace autoview {

namespace {

/// Locale-independent strict int64 parse. std::atoll silently accepted
/// trailing garbage and has undefined behavior on overflow, so two
/// processes could plan the same SQL differently; out-of-range literals
/// now fail the parse instead.
Result<int64_t> ParseInt64Literal(std::string_view text) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("integer literal out of range: " +
                              std::string(text));
  }
  return value;
}

/// Locale-independent strict double parse. std::atof reads the process
/// locale's decimal separator, so "1.5" parsed as 1.0 under e.g. de_DE
/// — the same workload produced different plans (and different view
/// utilities) depending on the host environment.
Result<double> ParseDoubleLiteral(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, std::chars_format::general);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("float literal out of range: " +
                              std::string(text));
  }
  return value;
}

/// Recursive-descent parser over the token stream. Keywords and symbols
/// are matched by enum; token text is copied only into the AST, whose
/// nodes come from one AstArena.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)), arena_(std::make_shared<AstArena>()) {
    // Every expression node consumes at least one token of its own, and
    // every statement its SELECT, so these bounds are never exceeded.
    size_t selects = 0;
    for (const Token& t : tokens_) selects += t.Is(Keyword::kSelect);
    arena_->exprs.reserve(tokens_.size());
    arena_->stmts.reserve(selects);
  }

  Result<std::shared_ptr<SelectStmt>> ParseStatement() {
    AV_ASSIGN_OR_RETURN(SelectStmt * stmt, ParseSelectStmt());
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing token '" + std::string(Peek().text) +
                   "'");
    }
    return std::shared_ptr<SelectStmt>(arena_, stmt);
  }

 private:
  AstExpr* NewExpr(AstExprKind kind) {
    AV_CHECK(arena_->exprs.size() < arena_->exprs.capacity());
    AstExpr& e = arena_->exprs.emplace_back();
    e.kind = kind;
    return &e;
  }
  SelectStmt* NewStmt() {
    AV_CHECK(arena_->stmts.size() < arena_->stmts.capacity());
    return &arena_->stmts.emplace_back();
  }

  const Token& Peek() const {
    return pos_ < tokens_.size() ? tokens_[pos_] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(Keyword kw) {
    if (Peek().Is(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Accept(Symbol sym) {
    if (Peek().Is(sym)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " (at offset " +
                              std::to_string(Peek().offset) + ")");
  }

  Result<SelectStmt*> ParseSelectStmt() {
    if (!Accept(Keyword::kSelect)) return Error("expected SELECT");
    SelectStmt* stmt = NewStmt();
    stmt->distinct = Accept(Keyword::kDistinct);
    stmt->items.reserve(4);
    do {
      SelectItem item;
      AV_ASSIGN_OR_RETURN(item.expr, ParseSelectExpr());
      if (Accept(Keyword::kAs)) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected alias after AS");
        }
        item.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
    } while (Accept(Symbol::kComma));

    if (!Accept(Keyword::kFrom)) return Error("expected FROM");
    AV_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    while (true) {
      const bool inner = Accept(Keyword::kInner);
      if (!Accept(Keyword::kJoin)) {
        if (inner) return Error("expected JOIN after INNER");
        break;
      }
      JoinClause join;
      AV_ASSIGN_OR_RETURN(join.right, ParseTableRef());
      if (!Accept(Keyword::kOn)) return Error("expected ON in join clause");
      AV_ASSIGN_OR_RETURN(join.condition, ParseOr());
      stmt->joins.push_back(std::move(join));
    }
    if (Accept(Keyword::kWhere)) {
      AV_ASSIGN_OR_RETURN(stmt->where, ParseOr());
    }
    if (Accept(Keyword::kGroup)) {
      if (!Accept(Keyword::kBy)) return Error("expected BY after GROUP");
      do {
        AV_ASSIGN_OR_RETURN(auto col, ParseColumnRef());
        stmt->group_by.push_back(std::move(col));
      } while (Accept(Symbol::kComma));
    }
    if (Accept(Keyword::kOrder)) {
      if (!Accept(Keyword::kBy)) return Error("expected BY after ORDER");
      do {
        OrderKey key;
        AV_ASSIGN_OR_RETURN(key.column, ParseColumnRef());
        if (Accept(Keyword::kDesc)) {
          key.descending = true;
        } else {
          Accept(Keyword::kAsc);
        }
        stmt->order_by.push_back(std::move(key));
      } while (Accept(Symbol::kComma));
    }
    if (Accept(Keyword::kLimit)) {
      if (Peek().type != TokenType::kIntLiteral) {
        return Error("expected integer after LIMIT");
      }
      AV_ASSIGN_OR_RETURN(stmt->limit, ParseInt64Literal(Advance().text));
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (Accept(Symbol::kLParen)) {
      AV_ASSIGN_OR_RETURN(ref.subquery, ParseSelectStmt());
      if (!Accept(Symbol::kRParen)) return Error("expected ) after subquery");
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.table = Advance().text;
    } else {
      return Error("expected table name or subquery");
    }
    if (Accept(Keyword::kAs)) {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected alias after AS");
      }
      ref.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    }
    if (ref.is_subquery() && ref.alias.empty()) {
      return Error("derived table requires an alias");
    }
    return ref;
  }

  /// Select-list entry: *, aggregate call, or column ref.
  Result<AstExprPtr> ParseSelectExpr() {
    if (Peek().Is(Symbol::kStar)) {
      Advance();
      return NewExpr(AstExprKind::kStar);
    }
    if (IsAggKeyword(Peek())) return ParseAggCall();
    return ParseColumnRef();
  }

  static bool IsAggKeyword(const Token& t) {
    switch (t.keyword) {
      case Keyword::kCount:
      case Keyword::kSum:
      case Keyword::kMin:
      case Keyword::kMax:
      case Keyword::kAvg:
        return true;
      default:
        return false;
    }
  }

  Result<AstExprPtr> ParseAggCall() {
    AstExpr* e = NewExpr(AstExprKind::kAggCall);
    const bool is_count = Peek().Is(Keyword::kCount);
    e->op = Advance().text;  // COUNT / SUM / ...
    if (!Accept(Symbol::kLParen)) return Error("expected ( after aggregate");
    if (Accept(Symbol::kStar)) {
      if (!is_count) return Error("only COUNT accepts *");
    } else {
      AV_ASSIGN_OR_RETURN(AstExpr * col, ParseColumnRef());
      e->children.push_back(col);
    }
    if (!Accept(Symbol::kRParen)) return Error("expected ) after aggregate");
    return e;
  }

  Result<AstExprPtr> ParseColumnRef() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected column reference");
    }
    AstExpr* e = NewExpr(AstExprKind::kColumnRef);
    e->name = Advance().text;
    if (Accept(Symbol::kDot)) {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("expected column after '.'");
      }
      e->qualifier = e->name;
      e->name = Advance().text;
    }
    return e;
  }

  Result<AstExprPtr> ParseOr() {
    AV_ASSIGN_OR_RETURN(AstExpr * left, ParseAnd());
    if (!Peek().Is(Keyword::kOr)) return left;
    AstExpr* e = NewExpr(AstExprKind::kOr);
    e->children.reserve(4);
    e->children.push_back(left);
    while (Accept(Keyword::kOr)) {
      AV_ASSIGN_OR_RETURN(AstExpr * right, ParseAnd());
      e->children.push_back(right);
    }
    return e;
  }

  Result<AstExprPtr> ParseAnd() {
    AV_ASSIGN_OR_RETURN(AstExpr * left, ParseNot());
    if (!Peek().Is(Keyword::kAnd)) return left;
    AstExpr* e = NewExpr(AstExprKind::kAnd);
    e->children.reserve(4);
    e->children.push_back(left);
    while (Accept(Keyword::kAnd)) {
      AV_ASSIGN_OR_RETURN(AstExpr * right, ParseNot());
      e->children.push_back(right);
    }
    return e;
  }

  Result<AstExprPtr> ParseNot() {
    if (Accept(Keyword::kNot)) {
      AstExpr* e = NewExpr(AstExprKind::kNot);
      AV_ASSIGN_OR_RETURN(AstExpr * child, ParseNot());
      e->children.push_back(child);
      return e;
    }
    if (Accept(Symbol::kLParen)) {
      AV_ASSIGN_OR_RETURN(AstExpr * inner, ParseOr());
      if (!Accept(Symbol::kRParen)) return Error("expected )");
      return inner;
    }
    return ParseComparison();
  }

  Result<AstExprPtr> ParseComparison() {
    AV_ASSIGN_OR_RETURN(AstExpr * left, ParseOperand());
    if (IsComparison(Peek().symbol)) {
      AstExpr* e = NewExpr(AstExprKind::kCompare);
      e->op = Advance().text;
      e->children.reserve(2);
      e->children.push_back(left);
      AV_ASSIGN_OR_RETURN(AstExpr * right, ParseOperand());
      e->children.push_back(right);
      return e;
    }
    return Error("expected comparison operator");
  }

  static bool IsComparison(Symbol s) {
    switch (s) {
      case Symbol::kEq:
      case Symbol::kNe:
      case Symbol::kLt:
      case Symbol::kLe:
      case Symbol::kGt:
      case Symbol::kGe:
        return true;
      default:
        return false;
    }
  }

  Result<AstExprPtr> ParseOperand() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        AV_ASSIGN_OR_RETURN(const int64_t v, ParseInt64Literal(t.text));
        AstExpr* e = NewExpr(AstExprKind::kLiteral);
        e->literal = Value(v);
        Advance();
        return e;
      }
      case TokenType::kFloatLiteral: {
        AV_ASSIGN_OR_RETURN(const double v, ParseDoubleLiteral(t.text));
        AstExpr* e = NewExpr(AstExprKind::kLiteral);
        e->literal = Value(v);
        Advance();
        return e;
      }
      case TokenType::kStringLiteral: {
        AstExpr* e = NewExpr(AstExprKind::kLiteral);
        e->literal = Value(std::string(t.text));
        Advance();
        return e;
      }
      case TokenType::kIdentifier:
        return ParseColumnRef();
      default:
        return Error("expected literal or column");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::shared_ptr<AstArena> arena_;
};

}  // namespace

Result<std::shared_ptr<SelectStmt>> ParseSelect(std::string_view sql) {
  AV_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace autoview
