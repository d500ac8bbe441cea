#include "gammaflow/expr/parser.hpp"

namespace gammaflow::expr {

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

// Every parse_* function carries `depth`: the number of open `(` and prefix
// `-`/`not` around the current position. Each of those recurses, so nesting
// past kMaxExprDepth is refused here instead of exhausting the stack.
ExprPtr parse_or(TokenStream& ts, std::size_t depth);

std::size_t nest(const TokenStream& ts, std::size_t depth) {
  if (depth >= kMaxExprDepth) {
    const Token& t = ts.peek();
    throw ParseError("nesting deeper than " + std::to_string(kMaxExprDepth),
                     t.line, t.column);
  }
  return depth + 1;
}

ExprPtr parse_primary(TokenStream& ts, std::size_t depth) {
  const Token& t = ts.peek();
  switch (t.kind) {
    case TokenKind::IntLit:
    case TokenKind::RealLit:
    case TokenKind::StrLit:
    case TokenKind::KwTrue:
    case TokenKind::KwFalse:
      ts.advance();
      return Expr::lit(t.value);
    case TokenKind::KwNil:
      ts.advance();
      return Expr::lit(Value());
    case TokenKind::Ident:
      ts.advance();
      return Expr::var(t.text);
    case TokenKind::LParen: {
      const std::size_t inner_depth = nest(ts, depth);
      ts.advance();
      ExprPtr inner = parse_or(ts, inner_depth);
      ts.expect(TokenKind::RParen);
      return inner;
    }
    default:
      throw ParseError(std::string("expected expression, found ") +
                           to_string(t.kind) +
                           (t.text.empty() ? "" : " '" + t.text + "'"),
                       t.line, t.column);
  }
}

ExprPtr parse_unary(TokenStream& ts, std::size_t depth) {
  UnOp op;
  if (ts.at(TokenKind::Minus)) op = UnOp::Neg;
  else if (ts.at(TokenKind::KwNot)) op = UnOp::Not;
  else return parse_primary(ts, depth);
  const std::size_t inner_depth = nest(ts, depth);
  ts.advance();
  return Expr::unary(op, parse_unary(ts, inner_depth));
}

ExprPtr parse_term(TokenStream& ts, std::size_t depth) {
  ExprPtr lhs = parse_unary(ts, depth);
  while (true) {
    BinOp op;
    if (ts.at(TokenKind::Star)) op = BinOp::Mul;
    else if (ts.at(TokenKind::Slash)) op = BinOp::Div;
    else if (ts.at(TokenKind::Percent)) op = BinOp::Mod;
    else break;
    ts.advance();
    lhs = Expr::binary(op, std::move(lhs), parse_unary(ts, depth));
  }
  return lhs;
}

ExprPtr parse_additive(TokenStream& ts, std::size_t depth) {
  ExprPtr lhs = parse_term(ts, depth);
  while (true) {
    BinOp op;
    if (ts.at(TokenKind::Plus)) op = BinOp::Add;
    else if (ts.at(TokenKind::Minus)) op = BinOp::Sub;
    else break;
    ts.advance();
    lhs = Expr::binary(op, std::move(lhs), parse_term(ts, depth));
  }
  return lhs;
}

ExprPtr parse_comparison(TokenStream& ts, std::size_t depth) {
  ExprPtr lhs = parse_additive(ts, depth);
  // Non-associative (a < b < c is rejected as a type error later, but we
  // still parse left-to-right like most languages).
  while (true) {
    BinOp op;
    switch (ts.peek().kind) {
      case TokenKind::Lt: op = BinOp::Lt; break;
      case TokenKind::Le: op = BinOp::Le; break;
      case TokenKind::Gt: op = BinOp::Gt; break;
      case TokenKind::Ge: op = BinOp::Ge; break;
      case TokenKind::EqEq: op = BinOp::Eq; break;
      case TokenKind::Ne: op = BinOp::Ne; break;
      default: return lhs;
    }
    ts.advance();
    lhs = Expr::binary(op, std::move(lhs), parse_additive(ts, depth));
  }
}

ExprPtr parse_and(TokenStream& ts, std::size_t depth) {
  ExprPtr lhs = parse_comparison(ts, depth);
  while (ts.accept(TokenKind::KwAnd)) {
    lhs = Expr::binary(BinOp::And, std::move(lhs),
                       parse_comparison(ts, depth));
  }
  return lhs;
}

ExprPtr parse_or(TokenStream& ts, std::size_t depth) {
  ExprPtr lhs = parse_and(ts, depth);
  while (ts.accept(TokenKind::KwOr)) {
    lhs = Expr::binary(BinOp::Or, std::move(lhs), parse_and(ts, depth));
  }
  return lhs;
}

}  // namespace

ExprPtr parse_expression(TokenStream& ts) { return parse_or(ts, 0); }

ExprPtr parse_expression(std::string_view source) {
  TokenStream ts(tokenize(source));
  ExprPtr e = parse_expression(ts);
  if (!ts.done()) {
    const Token& t = ts.peek();
    throw ParseError("trailing input after expression: '" + t.text + "'",
                     t.line, t.column);
  }
  return e;
}

}  // namespace gammaflow::expr
