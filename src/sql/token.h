#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace autoview {

/// \brief Lexical token categories produced by the SQL tokenizer.
enum class TokenType {
  kIdentifier,   // table / column / alias names
  kKeyword,      // SELECT, FROM, WHERE, ... (see `keyword`)
  kIntLiteral,   // 42
  kFloatLiteral, // 3.14
  kStringLiteral,// 'abc' (quotes stripped in `text`)
  kSymbol,       // ( ) , . * = < > <= >= <> != (see `symbol`)
  kEnd,
};

/// \brief The reserved words of the supported SQL fragment.
enum class Keyword : uint8_t {
  kNone,  // not a keyword
  kSelect, kFrom, kWhere, kGroup, kBy, kAs, kAnd, kOr, kNot, kInner,
  kJoin, kOn, kCount, kSum, kMin, kMax, kAvg, kDistinct, kOrder, kLimit,
  kHaving, kDesc, kAsc,
};

/// \brief Punctuation and operator symbols (`!=` lexes as kNe).
enum class Symbol : uint8_t {
  kNone,  // not a symbol
  kLParen, kRParen, kComma, kDot, kStar, kPlus, kMinus, kSlash,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

/// \brief One lexical token with its source offset (for error messages).
///
/// `text` borrows: identifiers, numbers and string literals view the SQL
/// passed to Tokenize() (which must outlive the tokens); keywords and
/// symbols view static storage holding their canonical spelling
/// ("SELECT" for `select`, "<>" for `!=`).
struct Token {
  TokenType type = TokenType::kEnd;
  Keyword keyword = Keyword::kNone;
  Symbol symbol = Symbol::kNone;
  std::string_view text;
  size_t offset = 0;

  bool Is(Keyword kw) const { return keyword == kw; }
  bool Is(Symbol sym) const { return symbol == sym; }
};

/// Tokenizes a SQL string. Keywords are case-insensitive (ASCII) and
/// carry their upper-case spelling; identifiers keep their original
/// spelling. Character classes are ASCII: any other byte outside a
/// string literal is a ParseError.
Result<std::vector<Token>> Tokenize(std::string_view sql);

}  // namespace autoview
