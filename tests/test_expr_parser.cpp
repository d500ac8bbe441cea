// Lexer and expression parser: tokens, precedence, locations, errors, and
// the print->parse round-trip property.
#include <gtest/gtest.h>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/expr/eval.hpp"
#include "gammaflow/expr/lexer.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/expr/simplify.hpp"

namespace gammaflow::expr {
namespace {

TEST(Lexer, BasicTokens) {
  auto toks = tokenize("replace [id1, 'A1', v] by 3 + 4.5");
  ASSERT_GE(toks.size(), 12u);
  EXPECT_EQ(toks[0].kind, TokenKind::KwReplace);
  EXPECT_EQ(toks[1].kind, TokenKind::LBracket);
  EXPECT_EQ(toks[2].kind, TokenKind::Ident);
  EXPECT_EQ(toks[2].text, "id1");
  EXPECT_EQ(toks[3].kind, TokenKind::Comma);
  EXPECT_EQ(toks[4].kind, TokenKind::StrLit);
  EXPECT_EQ(toks[4].value, Value("A1"));
  EXPECT_EQ(toks.back().kind, TokenKind::End);
}

TEST(Lexer, KeywordsAreCaseInsensitive) {
  // The paper's listings write "If id1 > 0".
  auto toks = tokenize("If REPLACE By eLsE Where");
  EXPECT_EQ(toks[0].kind, TokenKind::KwIf);
  EXPECT_EQ(toks[1].kind, TokenKind::KwReplace);
  EXPECT_EQ(toks[2].kind, TokenKind::KwBy);
  EXPECT_EQ(toks[3].kind, TokenKind::KwElse);
  EXPECT_EQ(toks[4].kind, TokenKind::KwWhere);
}

TEST(Lexer, NumbersIntAndReal) {
  auto toks = tokenize("42 3.25 1e3 7");
  EXPECT_EQ(toks[0].kind, TokenKind::IntLit);
  EXPECT_EQ(toks[0].value, Value(42));
  EXPECT_EQ(toks[1].kind, TokenKind::RealLit);
  EXPECT_EQ(toks[1].value, Value(3.25));
  EXPECT_EQ(toks[2].kind, TokenKind::RealLit);
  EXPECT_EQ(toks[2].value, Value(1000.0));
  EXPECT_EQ(toks[3].kind, TokenKind::IntLit);
}

TEST(Lexer, MultiCharOperators) {
  auto toks = tokenize("<= >= == != < >");
  EXPECT_EQ(toks[0].kind, TokenKind::Le);
  EXPECT_EQ(toks[1].kind, TokenKind::Ge);
  EXPECT_EQ(toks[2].kind, TokenKind::EqEq);
  EXPECT_EQ(toks[3].kind, TokenKind::Ne);
  EXPECT_EQ(toks[4].kind, TokenKind::Lt);
  EXPECT_EQ(toks[5].kind, TokenKind::Gt);
}

TEST(Lexer, CommentsAreSkipped) {
  auto toks = tokenize("1 # the rest is ignored == !=\n2");
  EXPECT_EQ(toks[0].value, Value(1));
  EXPECT_EQ(toks[1].value, Value(2));
  EXPECT_EQ(toks[2].kind, TokenKind::End);
}

TEST(Lexer, TracksLineAndColumn) {
  auto toks = tokenize("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].column, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].column, 3);
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW((void)tokenize("'abc"), ParseError);
  EXPECT_THROW((void)tokenize("'ab\nc'"), ParseError);
}

TEST(Lexer, UnknownCharacterThrows) {
  try {
    (void)tokenize("a $ b");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 3);
  }
}

TEST(Lexer, BareBangThrows) { EXPECT_THROW((void)tokenize("!x"), ParseError); }

TEST(Lexer, TrueFalseCarryValues) {
  auto toks = tokenize("true false nil");
  EXPECT_EQ(toks[0].value, Value(true));
  EXPECT_EQ(toks[1].value, Value(false));
  EXPECT_EQ(toks[2].kind, TokenKind::KwNil);
}

TEST(Parser, PrecedenceLadder) {
  // or < and < cmp < addsub < muldiv < unary
  auto e = parse_expression("a or b and c == d + e * -f");
  EXPECT_EQ(e->bin_op(), BinOp::Or);
  EXPECT_EQ(e->rhs()->bin_op(), BinOp::And);
  EXPECT_EQ(e->rhs()->rhs()->bin_op(), BinOp::Eq);
  EXPECT_EQ(e->rhs()->rhs()->rhs()->bin_op(), BinOp::Add);
  EXPECT_EQ(e->rhs()->rhs()->rhs()->rhs()->bin_op(), BinOp::Mul);
  EXPECT_EQ(e->rhs()->rhs()->rhs()->rhs()->rhs()->kind(), Expr::Kind::Unary);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  auto e = parse_expression("(a + b) * c");
  EXPECT_EQ(e->bin_op(), BinOp::Mul);
  EXPECT_EQ(e->lhs()->bin_op(), BinOp::Add);
}

TEST(Parser, LeftAssociative) {
  auto e = parse_expression("10 - 4 - 3");
  // ((10-4)-3)
  EXPECT_EQ(e->bin_op(), BinOp::Sub);
  EXPECT_EQ(e->lhs()->bin_op(), BinOp::Sub);
  EXPECT_EQ(e->rhs()->literal(), Value(3));
}

TEST(Parser, UnaryChains) {
  auto e = parse_expression("--x");
  EXPECT_EQ(e->kind(), Expr::Kind::Unary);
  EXPECT_EQ(e->operand()->kind(), Expr::Kind::Unary);
  auto n = parse_expression("not not p");
  EXPECT_EQ(n->kind(), Expr::Kind::Unary);
}

TEST(Parser, PaperConditions) {
  auto e = parse_expression("(x == 'A1') or (x == 'A11')");
  EXPECT_EQ(e->bin_op(), BinOp::Or);
  EXPECT_EQ(e->lhs()->bin_op(), BinOp::Eq);
  EXPECT_EQ(e->lhs()->rhs()->literal(), Value("A1"));
}

TEST(Parser, TrailingInputRejected) {
  EXPECT_THROW((void)parse_expression("a + b ]"), ParseError);
  EXPECT_THROW((void)parse_expression("a b"), ParseError);
}

TEST(Parser, EmptyInputRejected) {
  EXPECT_THROW((void)parse_expression(""), ParseError);
  EXPECT_THROW((void)parse_expression("()"), ParseError);
}

TEST(Parser, MissingOperandRejected) {
  EXPECT_THROW((void)parse_expression("a +"), ParseError);
  EXPECT_THROW((void)parse_expression("* a"), ParseError);
  EXPECT_THROW((void)parse_expression("(a + b"), ParseError);
}

TEST(Parser, LiteralKinds) {
  EXPECT_EQ(parse_expression("3")->literal(), Value(3));
  EXPECT_EQ(parse_expression("3.5")->literal(), Value(3.5));
  EXPECT_EQ(parse_expression("'s'")->literal(), Value("s"));
  EXPECT_EQ(parse_expression("true")->literal(), Value(true));
  EXPECT_EQ(parse_expression("nil")->literal(), Value());
}

/// The message of the ParseError `text` raises, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)parse_expression(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

std::string nested_parens(std::size_t depth) {
  return std::string(depth, '(') + "x" + std::string(depth, ')');
}

TEST(Parser, NestingUpToTheCapParses) {
  EXPECT_EQ(parse_expression(nested_parens(kMaxExprDepth))->to_string(), "x");
  EXPECT_EQ(parse_error(std::string(kMaxExprDepth, '-') + "x"), "");
  // The cap counts `(`, `-` and `not` together.
  std::string mixed;
  for (std::size_t i = 0; i < kMaxExprDepth / 4; ++i) mixed += "( - not -";
  mixed += " x" + std::string(kMaxExprDepth / 4, ')');
  EXPECT_EQ(parse_error(mixed), "");
  // Binary chains are iterative, not nesting: a long flat sum is fine.
  std::string chain = "x";
  for (int i = 0; i < 1000; ++i) chain += " + 1";
  EXPECT_EQ(parse_error(chain), "");
}

TEST(Parser, NestingPastTheCapIsAParseError) {
  const std::string deep = nested_parens(kMaxExprDepth + 1);
  EXPECT_EQ(parse_error(deep), "ParseError at 1:257: nesting deeper than 256");
  EXPECT_EQ(parse_error(std::string(kMaxExprDepth + 1, '-') + "x"),
            "ParseError at 1:257: nesting deeper than 256");
  std::string nots;
  for (std::size_t i = 0; i <= kMaxExprDepth; ++i) nots += "not ";
  EXPECT_EQ(parse_error(nots + "x"),
            "ParseError at 1:1025: nesting deeper than 256");
  // Depths that used to overflow the stack.
  EXPECT_EQ(parse_error(nested_parens(20'000)),
            "ParseError at 1:257: nesting deeper than 256");
  EXPECT_EQ(parse_error(std::string(50'000, '-') + "x"),
            "ParseError at 1:257: nesting deeper than 256");
}

/// `x + 1 + 1 ...` with `operators` binary operators.
std::string sum_chain(std::size_t operators) {
  std::string chain = "x";
  for (std::size_t i = 0; i < operators; ++i) chain += " + 1";
  return chain;
}

TEST(Parser, OperatorChainAtTheCapParsesAndEvaluates) {
  // Simplify, the walker, compile and destruction each recurse once per
  // operator of the chain: at the cap they must all still fit the stack.
  const ExprPtr e = parse_expression(sum_chain(kMaxExprOperators));
  const auto sum = static_cast<std::int64_t>(kMaxExprOperators) + 1;
  Env env;
  env.bind("x", Value(1));
  EXPECT_EQ(eval(simplify(e), env), Value(sum));
  const std::string slot_names[] = {"x"};
  const Chunk chunk = compile(e, slot_names);
  const Value one(1);
  const Value* const slots[] = {&one};
  Vm vm;
  EXPECT_EQ(vm.run(chunk, slots), Value(sum));
  EXPECT_TRUE(equal(parse_expression(e->to_string()), e));
}

TEST(Parser, OperatorChainPastTheCapIsAParseError) {
  // The 4097th '+' sits at column 4 * 4097 - 1.
  const std::string past =
      "ParseError at 1:16387: more than 4096 binary operators in one "
      "expression";
  EXPECT_EQ(parse_error(sum_chain(kMaxExprOperators + 1)), past);
  // A chain that used to overflow the stack after parsing.
  EXPECT_EQ(parse_error(sum_chain(100'000)), past);
  // The cap counts every binary operator of the expression, inside
  // parentheses or not.
  const std::string half =
      std::string("(").append(sum_chain(kMaxExprOperators / 2)).append(")");
  EXPECT_EQ(parse_error(half + " * " + half),
            "ParseError at 1:16390: more than 4096 binary operators in one "
            "expression");
  EXPECT_EQ(parse_error(half + " * " + half.substr(0, half.size() - 5) + ")"),
            "");
}

// Property: print -> parse returns a structurally identical tree, for random
// expression trees over several seeds.
class ExprRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ExprPtr random_tree(Rng& rng, int depth) {
    if (depth <= 0 || rng.coin(0.3)) {
      if (rng.coin()) {
        return Expr::var(std::string(1, static_cast<char>('a' + rng.bounded(6))));
      }
      return Expr::lit(Value(static_cast<std::int64_t>(rng.bounded(100))));
    }
    static constexpr BinOp kOps[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                     BinOp::Div, BinOp::Mod, BinOp::Lt,
                                     BinOp::Le, BinOp::Gt, BinOp::Ge,
                                     BinOp::Eq, BinOp::Ne, BinOp::And,
                                     BinOp::Or};
    if (rng.coin(0.15)) {
      return Expr::unary(rng.coin() ? UnOp::Neg : UnOp::Not,
                         random_tree(rng, depth - 1));
    }
    return Expr::binary(kOps[rng.bounded(std::size(kOps))],
                        random_tree(rng, depth - 1),
                        random_tree(rng, depth - 1));
  }
};

TEST_P(ExprRoundTrip, PrintParseIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const ExprPtr tree = random_tree(rng, 5);
    const std::string printed = tree->to_string();
    ExprPtr reparsed;
    ASSERT_NO_THROW(reparsed = parse_expression(printed)) << printed;
    EXPECT_TRUE(equal(tree, reparsed))
        << "original: " << printed
        << "\nreparsed: " << reparsed->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace gammaflow::expr
