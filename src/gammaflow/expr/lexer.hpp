// Lexer shared by the standalone expression parser and the Gamma DSL parser
// (Fig. 3 grammar). Keywords are matched case-insensitively because the
// paper's listings mix "if"/"If". String literals use single quotes, as in
// the paper ('A1').
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/value.hpp"

namespace gammaflow::expr {

enum class TokenKind : std::uint8_t {
  End,
  Ident,
  IntLit,
  RealLit,
  StrLit,
  // keywords
  KwReplace, KwBy, KwIf, KwElse, KwWhere,
  KwAnd, KwOr, KwNot, KwTrue, KwFalse, KwNil,
  // imperative-mode keywords (frontend only)
  KwFor, KwWhile, KwOutput, KwVar,
  // operators / punctuation
  Plus, Minus, Star, Slash, Percent,
  Lt, Le, Gt, Ge, EqEq, Ne,
  Assign, Comma, LBracket, RBracket, LParen, RParen,
  Pipe, Semicolon,
  // imperative-mode operators (frontend only)
  LBrace, RBrace, PlusPlus, MinusMinus, PlusEq, MinusEq,
};

const char* to_string(TokenKind kind) noexcept;

struct Token {
  TokenKind kind = TokenKind::End;
  std::string text;  // identifier name or raw literal spelling
  Value value;       // decoded literal payload for IntLit/RealLit/StrLit
  int line = 1;
  int column = 1;
};

/// Lexing dialect. Expression mode is the Gamma/expression language (the
/// default; `--x` lexes as two unary minuses). Imperative mode is the
/// frontend's C-like language: braces, ++/--/+=/-= and the for/while/
/// output/var keywords become tokens, `//` also starts a comment, and the
/// type words int/real/bool lex as KwVar.
enum class LexMode : std::uint8_t { Expression, Imperative };

/// The one lexer: yields the tokens of `source` one at a time, so a parser
/// reads text without holding a token vector. Raises ParseError on bad
/// characters, unterminated strings, or malformed numbers. `#` starts a line
/// comment.
class Lexer {
 public:
  explicit Lexer(std::string_view source,
                 LexMode mode = LexMode::Expression) noexcept
      : src_(source), mode_(mode) {}

  /// Lexes the next token into `out`, reusing its text buffer. At the end
  /// of the input, and on every call after it, `out` is the End token. After
  /// an error the lexer is at the end.
  void next(Token& out);

  /// Lexes and discards the rest of the input: raises the first lex error
  /// in it, if any.
  void drain();

 private:
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  [[noreturn]] void fail(const std::string& what, int line, int column);

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  // Where line_ starts: a column is the byte offset from here, plus one.
  // Only whitespace crosses a newline, so only its skip loop moves these.
  std::size_t line_start_ = 0;
  LexMode mode_;
};

/// Decodes a number spelled as the lexer spells an IntLit or RealLit,
/// after an optional '-' that folds into the value (so the int64 minimum
/// decodes). Raises ParseError at (line, column) when `text` is not one
/// such number or its value is out of range.
[[nodiscard]] Value decode_number(std::string_view text, int line, int column);

/// Tokenizes the whole input eagerly (a loop over Lexer, ending with End).
[[nodiscard]] std::vector<Token> tokenize(std::string_view source,
                                          LexMode mode = LexMode::Expression);

}  // namespace gammaflow::expr
