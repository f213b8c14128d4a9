#ifndef OOINT_COMMON_LEXER_H_
#define OOINT_COMMON_LEXER_H_

#include <charconv>
#include <string>
#include <system_error>
#include <vector>

#include "common/result.h"

namespace ooint {

/// Token kinds shared by the library's small languages (the assertion
/// language, the schema-definition language and the query language).
enum class TokKind {
  kEnd,
  kIdent,    // person, ssn#, car-name (identifiers may contain # and -)
  kString,   // "March"
  kNumber,   // 42, 3.5, -1
  kEqEq,     // ==
  kEq,       // =
  kNe,       // !=
  kLe,       // <=
  kGe,       // >=
  kLt,       // <
  kGt,       // >
  kTilde,    // ~
  kBang,     // !
  kArrow,    // ->
  kQuestion, // ?
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kColon,
  kSemi,
  kComma,
  kDot,
};

/// A stable display name, e.g. "identifier" or "'=='".
const char* TokKindName(TokKind kind);

struct Token {
  TokKind kind = TokKind::kEnd;
  /// Payload for identifiers, strings and numbers.
  std::string text;
  int line = 1;
  int column = 1;
};

/// Tokenizes `text`. Comments run from '#' to end of line. Identifiers
/// follow the paper's naming ([A-Za-z_][A-Za-z0-9_#-]*, with "->"
/// breaking an identifier so "a->b" lexes as three tokens). The token
/// list always ends with a kEnd token. Errors carry line/column.
Result<std::vector<Token>> Tokenize(const std::string& text);

/// Cursor over a token stream with the helpers the library's
/// recursive-descent parsers share.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  /// A ParseError status pinned to `token`'s position.
  Status ErrorAt(const Token& token, const std::string& message) const;

  /// The kNumber `token` as a `T` (an integer type, or double for
  /// literals with a fractional part). A literal outside T's range is a
  /// ParseError at the token, never an exception.
  template <typename T>
  Result<T> NumberAt(const Token& token) const {
    T value{};
    const char* last = token.text.data() + token.text.size();
    const auto [end, ec] = std::from_chars(token.text.data(), last, value);
    if (ec != std::errc() || end != last) {
      return ErrorAt(token, "number out of range");
    }
    return value;
  }

  /// Consumes a token of `kind` or fails.
  Status Expect(TokKind kind);
  /// Consumes and returns an identifier or fails.
  Result<std::string> ExpectIdent();
  /// Consumes the identifier `keyword` or fails.
  Status ExpectKeyword(const std::string& keyword);
  /// True (and consumes) when the next token is the identifier `word`.
  bool ConsumeKeyword(const std::string& word);
  /// True (and consumes) when the next token has `kind`.
  bool Consume(TokKind kind);

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace ooint

#endif  // OOINT_COMMON_LEXER_H_
