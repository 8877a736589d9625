#include "sql/token.h"

#include <array>
#include <string>

namespace autoview {

namespace {

// ASCII character classes (the C locale's isspace/isalpha/isalnum/
// isdigit), independent of the process locale.
constexpr uint8_t kSpace = 1;
constexpr uint8_t kIdentStart = 2;
constexpr uint8_t kIdentChar = 4;
constexpr uint8_t kDigit = 8;

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> table{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kIdentStart | kIdentChar;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kIdentStart | kIdentChar;
  table['_'] = kIdentStart | kIdentChar;
  for (int c = '0'; c <= '9'; ++c) table[c] = kIdentChar | kDigit;
  return table;
}

constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool HasClass(char c, uint8_t cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

struct KeywordEntry {
  std::string_view text;  // canonical upper-case spelling
  Keyword keyword;
};

constexpr KeywordEntry kKeywords[] = {
    {"AND", Keyword::kAnd},        {"AS", Keyword::kAs},
    {"ASC", Keyword::kAsc},        {"AVG", Keyword::kAvg},
    {"BY", Keyword::kBy},          {"COUNT", Keyword::kCount},
    {"DESC", Keyword::kDesc},      {"DISTINCT", Keyword::kDistinct},
    {"FROM", Keyword::kFrom},      {"GROUP", Keyword::kGroup},
    {"HAVING", Keyword::kHaving},  {"INNER", Keyword::kInner},
    {"JOIN", Keyword::kJoin},      {"LIMIT", Keyword::kLimit},
    {"MAX", Keyword::kMax},        {"MIN", Keyword::kMin},
    {"NOT", Keyword::kNot},        {"ON", Keyword::kOn},
    {"OR", Keyword::kOr},          {"ORDER", Keyword::kOrder},
    {"SELECT", Keyword::kSelect},  {"SUM", Keyword::kSum},
    {"WHERE", Keyword::kWhere},
};

char AsciiUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/// The keyword `word` spells (ASCII case-insensitively), or null.
const KeywordEntry* FindKeyword(std::string_view word) {
  for (const KeywordEntry& kw : kKeywords) {
    if (kw.text.size() != word.size()) continue;
    size_t i = 0;
    while (i < word.size() && AsciiUpper(word[i]) == kw.text[i]) ++i;
    if (i == word.size()) return &kw;
  }
  return nullptr;
}

struct SymbolEntry {
  std::string_view source;
  std::string_view text;  // canonical spelling
  Symbol symbol;
};

// Two-character operators first, so they win over their prefixes.
constexpr SymbolEntry kSymbols[] = {
    {"<=", "<=", Symbol::kLe},    {">=", ">=", Symbol::kGe},
    {"<>", "<>", Symbol::kNe},    {"!=", "<>", Symbol::kNe},
    {"(", "(", Symbol::kLParen},  {")", ")", Symbol::kRParen},
    {",", ",", Symbol::kComma},   {".", ".", Symbol::kDot},
    {"*", "*", Symbol::kStar},    {"=", "=", Symbol::kEq},
    {"<", "<", Symbol::kLt},      {">", ">", Symbol::kGt},
    {"+", "+", Symbol::kPlus},    {"-", "-", Symbol::kMinus},
    {"/", "/", Symbol::kSlash},
};

/// The symbol `rest` starts with, or null.
const SymbolEntry* MatchSymbol(std::string_view rest) {
  for (const SymbolEntry& sym : kSymbols) {
    if (rest[0] == sym.source[0] &&
        (sym.source.size() == 1 ||
         (rest.size() > 1 && rest[1] == sym.source[1]))) {
      return &sym;
    }
  }
  return nullptr;
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  tokens.reserve(sql.size() / 4 + 1);
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (HasClass(c, kSpace)) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (HasClass(c, kIdentStart)) {
      size_t j = i + 1;
      while (j < n && HasClass(sql[j], kIdentChar)) ++j;
      const std::string_view word = sql.substr(i, j - i);
      if (const KeywordEntry* kw = FindKeyword(word)) {
        tokens.push_back(
            {TokenType::kKeyword, kw->keyword, Symbol::kNone, kw->text, start});
      } else {
        tokens.push_back({TokenType::kIdentifier, Keyword::kNone,
                          Symbol::kNone, word, start});
      }
      i = j;
    } else if (HasClass(c, kDigit)) {
      size_t j = i;
      bool is_float = false;
      while (j < n && (HasClass(sql[j], kDigit) || sql[j] == '.')) {
        if (sql[j] == '.') {
          if (is_float) break;  // second dot ends the number
          is_float = true;
        }
        ++j;
      }
      tokens.push_back({is_float ? TokenType::kFloatLiteral
                                 : TokenType::kIntLiteral,
                        Keyword::kNone, Symbol::kNone, sql.substr(i, j - i),
                        start});
      i = j;
    } else if (c == '\'') {
      const size_t close = sql.find('\'', i + 1);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      tokens.push_back({TokenType::kStringLiteral, Keyword::kNone,
                        Symbol::kNone, sql.substr(i + 1, close - i - 1),
                        start});
      i = close + 1;
    } else if (c == ';') {  // statement terminator: ignore
      ++i;
    } else {
      const SymbolEntry* sym = MatchSymbol(sql.substr(i));
      if (sym == nullptr) {
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
      }
      tokens.push_back(
          {TokenType::kSymbol, Keyword::kNone, sym->symbol, sym->text, start});
      i += sym->source.size();
    }
  }
  tokens.push_back({TokenType::kEnd, Keyword::kNone, Symbol::kNone, {}, n});
  return tokens;
}

}  // namespace autoview
