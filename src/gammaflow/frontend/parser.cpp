#include "gammaflow/frontend/parser.hpp"

#include <string>

#include "gammaflow/expr/parser.hpp"

namespace gammaflow::frontend {

using expr::Token;
using expr::TokenKind;
using expr::TokenStream;

namespace {

class Parser {
 public:
  explicit Parser(TokenStream& ts) : ts_(ts) {}

  ProgramAst parse() {
    ProgramAst program;
    while (!ts_.done()) statement(program.statements);
    return program;
  }

 private:
  [[noreturn]] void error(const std::string& what) {
    const Token& t = ts_.peek();
    throw ParseError(what + " (found " + expr::to_string(t.kind) +
                         (t.text.empty() ? "" : " '" + t.text + "'") + ")",
                     t.line, t.column);
  }

  /// The body of an `if`/`else`/`while`/`for`. Bodies nest by recursion
  /// (block → statement → block), so nesting past expr::kMaxExprDepth is
  /// refused here instead of exhausting the stack.
  Block block() {
    if (block_depth_ >= expr::kMaxExprDepth) {
      const Token& t = ts_.peek();
      throw ParseError(std::string("nesting deeper than ")
                           .append(std::to_string(expr::kMaxExprDepth)),
                       t.line, t.column);
    }
    ++block_depth_;
    Block body = block_body();
    --block_depth_;
    return body;
  }

  Block block_body() {
    Block body;
    if (ts_.accept(TokenKind::LBrace)) {
      while (!ts_.at(TokenKind::RBrace)) {
        if (ts_.done()) error("unterminated block; expected '}'");
        statement(body);
      }
      ts_.advance();  // }
      return body;
    }
    statement(body);  // single-statement body, like the paper's loop
    return body;
  }

  /// Assignment without the trailing ';' (shared by statements and for(...)
  /// headers): `x = e`, `x += e`, `x -= e`, `x++`, `x--`.
  StmtPtr assignment() {
    const Token& name_tok = ts_.expect(TokenKind::Ident);
    const std::string name = name_tok.text;
    const int line = name_tok.line;
    const auto var = expr::Expr::var(name);
    if (ts_.accept(TokenKind::Assign)) {
      return Stmt::make_assign(name, expr::parse_expression(ts_), line);
    }
    if (ts_.accept(TokenKind::PlusEq)) {
      return Stmt::make_assign(
          name,
          expr::Expr::binary(expr::BinOp::Add, var, expr::parse_expression(ts_)),
          line);
    }
    if (ts_.accept(TokenKind::MinusEq)) {
      return Stmt::make_assign(
          name,
          expr::Expr::binary(expr::BinOp::Sub, var, expr::parse_expression(ts_)),
          line);
    }
    const auto one = expr::Expr::lit(Value(std::int64_t{1}));
    if (ts_.accept(TokenKind::PlusPlus)) {
      return Stmt::make_assign(
          name, expr::Expr::binary(expr::BinOp::Add, var, one), line);
    }
    if (ts_.accept(TokenKind::MinusMinus)) {
      return Stmt::make_assign(
          name, expr::Expr::binary(expr::BinOp::Sub, var, one), line);
    }
    error("expected '=', '+=', '-=', '++' or '--' after variable");
  }

  /// Parses one statement; may append several AST nodes (a for-loop becomes
  /// init + while).
  void statement(Block& out) {
    const int line = ts_.peek().line;
    switch (ts_.peek().kind) {
      case TokenKind::KwVar:
        // `int x = e;` — the type word is documentation; semantics stay
        // dynamic like the rest of the system.
        ts_.advance();
        out.push_back(assignment());
        ts_.expect(TokenKind::Semicolon);
        return;
      case TokenKind::Ident:
        out.push_back(assignment());
        ts_.expect(TokenKind::Semicolon);
        return;
      case TokenKind::KwOutput: {
        ts_.advance();
        const Token& name = ts_.expect(TokenKind::Ident);
        out.push_back(Stmt::make_output(name.text, name.line));
        ts_.expect(TokenKind::Semicolon);
        return;
      }
      case TokenKind::KwIf: {
        ts_.advance();
        ts_.expect(TokenKind::LParen);
        expr::ExprPtr cond = expr::parse_expression(ts_);
        ts_.expect(TokenKind::RParen);
        Block then_body = block();
        Block else_body;
        if (ts_.accept(TokenKind::KwElse)) else_body = block();
        out.push_back(Stmt::make_if(std::move(cond), std::move(then_body),
                                    std::move(else_body), line));
        return;
      }
      case TokenKind::KwWhile: {
        ts_.advance();
        ts_.expect(TokenKind::LParen);
        expr::ExprPtr cond = expr::parse_expression(ts_);
        ts_.expect(TokenKind::RParen);
        out.push_back(Stmt::make_while(std::move(cond), block(), line));
        return;
      }
      case TokenKind::KwFor: {
        // for (init; cond; step) body  desugars to  init; while (cond)
        // { body; step; } — the uniform shape the compiler lowers to the
        // Fig. 2 steer/inctag pattern.
        ts_.advance();
        ts_.expect(TokenKind::LParen);
        if (!ts_.at(TokenKind::Semicolon)) {
          ts_.accept(TokenKind::KwVar);
          out.push_back(assignment());
        }
        ts_.expect(TokenKind::Semicolon);
        expr::ExprPtr cond = ts_.at(TokenKind::Semicolon)
                                 ? expr::Expr::lit(Value(true))
                                 : expr::parse_expression(ts_);
        ts_.expect(TokenKind::Semicolon);
        StmtPtr step;
        if (!ts_.at(TokenKind::RParen)) step = assignment();
        ts_.expect(TokenKind::RParen);
        Block body = block();
        if (step) body.push_back(std::move(step));
        out.push_back(
            Stmt::make_while(std::move(cond), std::move(body), line));
        return;
      }
      default:
        error("expected a statement");
    }
  }

  TokenStream& ts_;
  std::size_t block_depth_ = 0;  // bodies open around the current statement
};

}  // namespace

ProgramAst parse_source(std::string_view source) {
  return expr::parse_text(source, expr::LexMode::Imperative,
                         [](TokenStream& ts) { return Parser(ts).parse(); });
}

}  // namespace gammaflow::frontend
