// Recursive-descent expression parser over the shared token stream. The DSL
// parser embeds this for replace/by/if payloads; it is also a public entry
// point ("parse this arithmetic string") used by tests and generators.
//
// Precedence (loosest to tightest):  or < and < comparisons < +- < */% < unary
#pragma once

#include <array>
#include <string_view>
#include <utility>

#include "gammaflow/expr/ast.hpp"
#include "gammaflow/expr/lexer.hpp"

namespace gammaflow::expr {

/// Cursor over the tokens of one source text, lexed on demand. It holds the
/// current token, two more of lookahead (peek(2) is the deepest) and the
/// token consumed last, never the whole token sequence: the token that
/// advance() returns stays valid until the next advance().
class TokenStream {
 public:
  static constexpr std::size_t kLookahead = 3;

  explicit TokenStream(std::string_view source,
                       LexMode mode = LexMode::Expression);

  /// The token `ahead` positions on; `ahead` < kLookahead. Past the end of
  /// the input every position holds the End token.
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const noexcept {
    return ring_[(head_ + ahead) % kSlots];
  }
  [[nodiscard]] bool at(TokenKind kind) const noexcept {
    return peek().kind == kind;
  }
  /// Consumes the current token (End stays current) and returns it.
  const Token& advance();
  /// Consumes a token of `kind` or raises ParseError naming what was found.
  const Token& expect(TokenKind kind);
  /// Consumes and returns true if the next token is `kind`.
  bool accept(TokenKind kind) {
    if (!at(kind)) return false;
    advance();
    return true;
  }
  [[nodiscard]] bool done() const noexcept { return at(TokenKind::End); }

  /// Lexes the rest of the input; raises the first lex error in it.
  void drain() { lexer_.drain(); }

 private:
  static constexpr std::size_t kSlots = kLookahead + 1;

  Lexer lexer_;
  std::array<Token, kSlots> ring_;
  std::size_t head_ = 0;  // slot of peek(0)
};

/// Runs `parse` on a stream over the whole of `source` and returns what it
/// returns. The stream lexes lazily, so the text past the point where
/// `parse` fails is not lexed yet: on any error the rest is lexed first, and
/// a lex error there wins, as when the whole text was tokenized before
/// parsing. Every parser of a whole text goes through here.
template <typename Parse>
auto parse_text(std::string_view source, LexMode mode, Parse&& parse) {
  TokenStream ts(source, mode);
  try {
    return std::forward<Parse>(parse)(ts);
  } catch (...) {
    ts.drain();
    throw;
  }
}

/// Deepest nesting of `(`, prefix `-` and `not` the parser accepts (the
/// same limit as the JSON codec's kMaxJsonDepth). Deeper input raises
/// ParseError("nesting deeper than 256") instead of overflowing the stack.
inline constexpr std::size_t kMaxExprDepth = 256;

/// Most binary operators one expression may hold. Simplify, compile, eval
/// and destruction recurse down an operator chain, so a longer one raises
/// ParseError("more than 4096 binary operators in one expression") instead
/// of overflowing the stack there.
inline constexpr std::size_t kMaxExprOperators = 4096;

/// Parses one expression from `ts`, leaving the cursor after it.
[[nodiscard]] ExprPtr parse_expression(TokenStream& ts);

/// Parses an entire string as a single expression; rejects trailing tokens.
[[nodiscard]] ExprPtr parse_expression(std::string_view source);

}  // namespace gammaflow::expr
