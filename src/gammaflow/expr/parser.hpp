// Recursive-descent expression parser over the shared token stream. The DSL
// parser embeds this for replace/by/if payloads; it is also a public entry
// point ("parse this arithmetic string") used by tests and generators.
//
// Precedence (loosest to tightest):  or < and < comparisons < +- < */% < unary
#pragma once

#include <string_view>
#include <vector>

#include "gammaflow/expr/ast.hpp"
#include "gammaflow/expr/lexer.hpp"

namespace gammaflow::expr {

/// Bounded cursor over a token vector; shared with the DSL parser.
class TokenStream {
 public:
  explicit TokenStream(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const noexcept {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  [[nodiscard]] bool at(TokenKind kind) const noexcept {
    return peek().kind == kind;
  }
  const Token& advance() noexcept {
    const Token& t = peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  /// Consumes a token of `kind` or raises ParseError naming what was found.
  const Token& expect(TokenKind kind);
  /// Consumes and returns true if the next token is `kind`.
  bool accept(TokenKind kind) noexcept {
    if (!at(kind)) return false;
    advance();
    return true;
  }
  [[nodiscard]] bool done() const noexcept { return at(TokenKind::End); }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

/// Deepest nesting of `(`, prefix `-` and `not` the parser accepts (the
/// same limit as the JSON codec's kMaxJsonDepth). Deeper input raises
/// ParseError("nesting deeper than 256") instead of overflowing the stack.
inline constexpr std::size_t kMaxExprDepth = 256;

/// Parses one expression from `ts`, leaving the cursor after it.
[[nodiscard]] ExprPtr parse_expression(TokenStream& ts);

/// Parses an entire string as a single expression; rejects trailing tokens.
[[nodiscard]] ExprPtr parse_expression(std::string_view source);

}  // namespace gammaflow::expr
