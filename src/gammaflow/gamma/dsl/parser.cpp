#include "gammaflow/gamma/dsl/parser.hpp"

#include <iterator>
#include <set>

#include "gammaflow/common/error.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/expr/simplify.hpp"

namespace gammaflow::gamma::dsl {

using expr::LexMode;
using expr::Token;
using expr::TokenKind;
using expr::TokenStream;

namespace {

PatternField parse_pattern_field(TokenStream& ts) {
  const Token& t = ts.peek();
  switch (t.kind) {
    case TokenKind::Ident:
      ts.advance();
      return PatternField::bind(t.text);
    case TokenKind::IntLit:
    case TokenKind::RealLit:
    case TokenKind::StrLit:
    case TokenKind::KwTrue:
    case TokenKind::KwFalse:
      ts.advance();
      return PatternField::literal(t.value);
    case TokenKind::Minus: {
      ts.advance();
      const Token& lit = ts.peek();
      if (lit.kind == TokenKind::IntLit) {
        ts.advance();
        return PatternField::literal(Value(-lit.value.as_int()));
      }
      if (lit.kind == TokenKind::RealLit) {
        ts.advance();
        return PatternField::literal(Value(-lit.value.as_real()));
      }
      throw ParseError("expected number after '-' in pattern", lit.line,
                       lit.column);
    }
    default:
      throw ParseError(std::string("expected pattern field, found ") +
                           to_string(t.kind),
                       t.line, t.column);
  }
}

Pattern parse_pattern(TokenStream& ts) {
  if (ts.at(TokenKind::Ident)) {
    // Bare variable: classic Gamma one-field element.
    return Pattern::var(ts.advance().text);
  }
  ts.expect(TokenKind::LBracket);
  std::vector<PatternField> fields;
  fields.push_back(parse_pattern_field(ts));
  while (ts.accept(TokenKind::Comma)) fields.push_back(parse_pattern_field(ts));
  ts.expect(TokenKind::RBracket);
  return Pattern(std::move(fields));
}

std::vector<expr::ExprPtr> parse_output_tuple(TokenStream& ts) {
  if (ts.accept(TokenKind::LBracket)) {
    std::vector<expr::ExprPtr> fields;
    fields.push_back(expr::parse_expression(ts));
    while (ts.accept(TokenKind::Comma)) {
      fields.push_back(expr::parse_expression(ts));
    }
    ts.expect(TokenKind::RBracket);
    return fields;
  }
  // Bare expression: one-field output element.
  return {expr::parse_expression(ts)};
}

Branch parse_branch(TokenStream& ts) {
  ts.expect(TokenKind::KwBy);
  std::vector<std::vector<expr::ExprPtr>> outputs;
  // 'by 0' means "produce nothing" (the paper's notation for pure
  // consumption). A literal single-field [0] spells the element explicitly.
  if (ts.at(TokenKind::IntLit) && ts.peek().value.as_int() == 0 &&
      ts.peek(1).kind != TokenKind::Comma) {
    ts.advance();
  } else {
    outputs.push_back(parse_output_tuple(ts));
    while (ts.accept(TokenKind::Comma)) outputs.push_back(parse_output_tuple(ts));
  }

  if (ts.accept(TokenKind::KwIf) || ts.accept(TokenKind::KwWhere)) {
    return Branch::when(expr::parse_expression(ts), std::move(outputs));
  }
  if (ts.accept(TokenKind::KwElse)) {
    return Branch::otherwise(std::move(outputs));
  }
  return Branch::unconditional(std::move(outputs));
}

Reaction parse_reaction_body(TokenStream& ts) {
  const Token& name_tok = ts.expect(TokenKind::Ident);
  const std::string name = name_tok.text;
  ts.expect(TokenKind::Assign);
  ts.expect(TokenKind::KwReplace);

  std::vector<Pattern> patterns;
  patterns.push_back(parse_pattern(ts));
  while (ts.accept(TokenKind::Comma)) patterns.push_back(parse_pattern(ts));

  std::vector<Branch> branches;
  while (ts.at(TokenKind::KwBy)) branches.push_back(parse_branch(ts));
  if (branches.empty()) {
    const Token& t = ts.peek();
    throw ParseError("reaction '" + name + "' needs at least one 'by' clause",
                     t.line, t.column);
  }
  return Reaction(name, std::move(patterns), std::move(branches));
}

Program parse_program_body(TokenStream& ts) {
  std::vector<std::vector<Reaction>> stages;
  std::vector<Reaction> current;
  std::set<std::string> names;

  while (!ts.done()) {
    Reaction r = parse_reaction_body(ts);
    if (!names.insert(r.name()).second) {
      throw ProgramError("duplicate reaction name '" + r.name() + "'");
    }
    current.push_back(std::move(r));
    if (ts.accept(TokenKind::Semicolon)) {
      stages.push_back(std::move(current));
      current.clear();
    } else {
      ts.accept(TokenKind::Pipe);  // '|' is optional between parallel reactions
    }
  }
  if (!current.empty()) stages.push_back(std::move(current));
  if (stages.empty()) throw ProgramError("empty Gamma program");

  Program program(std::move(stages.front()));
  for (std::size_t i = 1; i < stages.size(); ++i) {
    program = program.then(Program(std::move(stages[i])));
  }
  return program;
}

/// One field of an element. A lone literal, or `-` and a number, that ends
/// the field becomes its Value straight off the tokens. Anything else is an
/// expression and must fold to a literal; that path gives a lone literal the
/// same Value, so the shortcut is invisible.
Value element_field(TokenStream& ts) {
  const auto ends_field = [](TokenKind kind) {
    return kind == TokenKind::Comma || kind == TokenKind::RBracket ||
           kind == TokenKind::End;
  };
  const TokenKind first = ts.peek().kind;
  if (ends_field(ts.peek(1).kind)) {
    switch (first) {
      case TokenKind::IntLit:
      case TokenKind::RealLit:
      case TokenKind::StrLit:
      case TokenKind::KwTrue:
      case TokenKind::KwFalse:
      case TokenKind::KwNil:  // its token's value is nil
        return ts.advance().value;
      default:
        break;
    }
  } else if (first == TokenKind::Minus && ends_field(ts.peek(2).kind) &&
             (ts.peek(1).kind == TokenKind::IntLit ||
              ts.peek(1).kind == TokenKind::RealLit)) {
    ts.advance();
    return neg(ts.advance().value);
  }
  const expr::ExprPtr e = expr::parse_expression(ts);
  const expr::ExprPtr folded = expr::simplify(e);
  if (folded->kind() != expr::Expr::Kind::Literal) {
    throw Error("multiset element fields must be literals, got '" +
                e->to_string() + "'");
  }
  return folded->literal();
}

/// The element-list grammar: appends each element's fields to `fields`,
/// then calls done(first), `first` the index of the element's first field.
template <typename Done>
void element_list(TokenStream& ts, std::vector<Value>& fields, Done&& done) {
  while (!ts.done()) {
    ts.accept(TokenKind::Comma);
    if (ts.done()) break;
    const std::size_t first = fields.size();
    if (ts.accept(TokenKind::LBracket)) {
      fields.push_back(element_field(ts));
      while (ts.accept(TokenKind::Comma)) fields.push_back(element_field(ts));
      ts.expect(TokenKind::RBracket);
    } else {
      fields.push_back(element_field(ts));
    }
    done(first);
  }
}

}  // namespace

Program parse_program(std::string_view source) {
  return expr::parse_text(source, LexMode::Expression, parse_program_body);
}

Reaction parse_reaction(std::string_view source) {
  return expr::parse_text(source, LexMode::Expression, [](TokenStream& ts) {
    Reaction r = parse_reaction_body(ts);
    if (!ts.done()) {
      const Token& t = ts.peek();
      throw ParseError("trailing input after reaction: '" + t.text + "'",
                       t.line, t.column);
    }
    return r;
  });
}

void read_elements(std::string_view source, FlatElements& out) {
  out.clear();
  expr::parse_text(source, LexMode::Expression, [&out](TokenStream& ts) {
    element_list(ts, out.fields, [&out](std::size_t first) {
      out.arities.push_back(out.fields.size() - first);
    });
  });
}

Multiset parse_elements(std::string_view source) {
  return expr::parse_text(source, LexMode::Expression, [](TokenStream& ts) {
    Multiset m;
    std::vector<Value> fields;  // one element's fields, reused
    element_list(ts, fields, [&](std::size_t) {
      // Exactly sized: the element's one allocation.
      m.add(Element(std::vector<Value>(std::make_move_iterator(fields.begin()),
                                       std::make_move_iterator(fields.end()))));
      fields.clear();
    });
    return m;
  });
}

std::string print(const Program& program) { return program.to_string(); }
std::string print(const Reaction& reaction) { return reaction.to_string(); }

}  // namespace gammaflow::gamma::dsl
