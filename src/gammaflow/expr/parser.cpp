#include "gammaflow/expr/parser.hpp"

namespace gammaflow::expr {

TokenStream::TokenStream(std::string_view source, LexMode mode)
    : lexer_(source, mode) {
  for (std::size_t i = 0; i < kLookahead; ++i) lexer_.next(ring_[i]);
}

const Token& TokenStream::advance() {
  const std::size_t consumed = head_;
  if (ring_[consumed].kind == TokenKind::End) return ring_[consumed];
  head_ = (head_ + 1) % kSlots;
  // The slot after the lookahead held the token consumed before this one.
  lexer_.next(ring_[(head_ + kLookahead - 1) % kSlots]);
  return ring_[consumed];
}

const Token& TokenStream::expect(TokenKind kind) {
  if (!at(kind)) {
    const Token& t = peek();
    throw ParseError(std::string("expected ") + to_string(kind) + ", found " +
                         to_string(t.kind) +
                         (t.text.empty() ? "" : " '" + t.text + "'"),
                     t.line, t.column);
  }
  return advance();
}

namespace {

// Recursive descent over one expression. Every parse_* function carries
// `depth`: the number of open `(` and prefix `-`/`not` around the current
// position. Each of those recurses, so nesting past kMaxExprDepth is refused
// here instead of exhausting the stack. Binary operators loop, but the tree
// they build is a chain the later passes recurse down, so their count is
// capped at kMaxExprOperators.
class Parser {
 public:
  explicit Parser(TokenStream& ts) : ts_(ts) {}

  ExprPtr parse_or(std::size_t depth) {
    ExprPtr lhs = parse_and(depth);
    while (ts_.at(TokenKind::KwOr)) {
      operator_token();
      lhs = Expr::binary(BinOp::Or, std::move(lhs), parse_and(depth));
    }
    return lhs;
  }

 private:
  std::size_t nest(std::size_t depth) const {
    if (depth >= kMaxExprDepth) {
      const Token& t = ts_.peek();
      throw ParseError("nesting deeper than " + std::to_string(kMaxExprDepth),
                       t.line, t.column);
    }
    return depth + 1;
  }

  /// Consumes the binary operator at the cursor, counting it.
  void operator_token() {
    if (operators_ >= kMaxExprOperators) {
      const Token& t = ts_.peek();
      throw ParseError(std::string("more than ")
                           .append(std::to_string(kMaxExprOperators))
                           .append(" binary operators in one expression"),
                       t.line, t.column);
    }
    ++operators_;
    ts_.advance();
  }

  ExprPtr parse_primary(std::size_t depth) {
    const Token& t = ts_.peek();
    switch (t.kind) {
      case TokenKind::IntLit:
      case TokenKind::RealLit:
      case TokenKind::StrLit:
      case TokenKind::KwTrue:
      case TokenKind::KwFalse:
        return Expr::lit(ts_.advance().value);
      case TokenKind::KwNil:
        ts_.advance();
        return Expr::lit(Value());
      case TokenKind::Ident:
        return Expr::var(ts_.advance().text);
      case TokenKind::LParen: {
        const std::size_t inner_depth = nest(depth);
        ts_.advance();
        ExprPtr inner = parse_or(inner_depth);
        ts_.expect(TokenKind::RParen);
        return inner;
      }
      default:
        throw ParseError(std::string("expected expression, found ") +
                             to_string(t.kind) +
                             (t.text.empty() ? "" : " '" + t.text + "'"),
                         t.line, t.column);
    }
  }

  ExprPtr parse_unary(std::size_t depth) {
    UnOp op;
    if (ts_.at(TokenKind::Minus)) op = UnOp::Neg;
    else if (ts_.at(TokenKind::KwNot)) op = UnOp::Not;
    else return parse_primary(depth);
    const std::size_t inner_depth = nest(depth);
    ts_.advance();
    return Expr::unary(op, parse_unary(inner_depth));
  }

  ExprPtr parse_term(std::size_t depth) {
    ExprPtr lhs = parse_unary(depth);
    while (true) {
      BinOp op;
      if (ts_.at(TokenKind::Star)) op = BinOp::Mul;
      else if (ts_.at(TokenKind::Slash)) op = BinOp::Div;
      else if (ts_.at(TokenKind::Percent)) op = BinOp::Mod;
      else break;
      operator_token();
      lhs = Expr::binary(op, std::move(lhs), parse_unary(depth));
    }
    return lhs;
  }

  ExprPtr parse_additive(std::size_t depth) {
    ExprPtr lhs = parse_term(depth);
    while (true) {
      BinOp op;
      if (ts_.at(TokenKind::Plus)) op = BinOp::Add;
      else if (ts_.at(TokenKind::Minus)) op = BinOp::Sub;
      else break;
      operator_token();
      lhs = Expr::binary(op, std::move(lhs), parse_term(depth));
    }
    return lhs;
  }

  ExprPtr parse_comparison(std::size_t depth) {
    ExprPtr lhs = parse_additive(depth);
    // Non-associative (a < b < c is rejected as a type error later, but we
    // still parse left-to-right like most languages).
    while (true) {
      BinOp op;
      switch (ts_.peek().kind) {
        case TokenKind::Lt: op = BinOp::Lt; break;
        case TokenKind::Le: op = BinOp::Le; break;
        case TokenKind::Gt: op = BinOp::Gt; break;
        case TokenKind::Ge: op = BinOp::Ge; break;
        case TokenKind::EqEq: op = BinOp::Eq; break;
        case TokenKind::Ne: op = BinOp::Ne; break;
        default: return lhs;
      }
      operator_token();
      lhs = Expr::binary(op, std::move(lhs), parse_additive(depth));
    }
  }

  ExprPtr parse_and(std::size_t depth) {
    ExprPtr lhs = parse_comparison(depth);
    while (ts_.at(TokenKind::KwAnd)) {
      operator_token();
      lhs = Expr::binary(BinOp::And, std::move(lhs), parse_comparison(depth));
    }
    return lhs;
  }

  TokenStream& ts_;
  std::size_t operators_ = 0;  // binary operators consumed so far
};

}  // namespace

ExprPtr parse_expression(TokenStream& ts) { return Parser(ts).parse_or(0); }

ExprPtr parse_expression(std::string_view source) {
  return parse_text(source, LexMode::Expression, [](TokenStream& ts) {
    ExprPtr e = parse_expression(ts);
    if (!ts.done()) {
      const Token& t = ts.peek();
      throw ParseError("trailing input after expression: '" + t.text + "'",
                       t.line, t.column);
    }
    return e;
  });
}

}  // namespace gammaflow::expr
