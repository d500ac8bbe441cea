// Expression IR: construction, printing, equality, free variables,
// evaluation (incl. short-circuit semantics), environments.
#include <gtest/gtest.h>

#include "gammaflow/expr/ast.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/expr/eval.hpp"

namespace gammaflow::expr {
namespace {

TEST(ExprAst, LiteralNode) {
  auto e = Expr::lit(Value(5));
  EXPECT_EQ(e->kind(), Expr::Kind::Literal);
  EXPECT_EQ(e->literal(), Value(5));
  EXPECT_EQ(e->size(), 1u);
  EXPECT_TRUE(e->free_vars().empty());
}

TEST(ExprAst, VarNode) {
  auto e = Expr::var("id1");
  EXPECT_EQ(e->kind(), Expr::Kind::Var);
  EXPECT_EQ(e->var(), "id1");
  EXPECT_EQ(e->free_vars(), std::set<std::string>{"id1"});
}

TEST(ExprAst, BinaryTreeStructure) {
  auto e = Expr::binary(BinOp::Sub,
                        Expr::binary(BinOp::Add, Expr::var("x"), Expr::var("y")),
                        Expr::binary(BinOp::Mul, Expr::var("k"), Expr::var("j")));
  EXPECT_EQ(e->kind(), Expr::Kind::Binary);
  EXPECT_EQ(e->bin_op(), BinOp::Sub);
  EXPECT_EQ(e->size(), 7u);
  EXPECT_EQ(e->free_vars(), (std::set<std::string>{"j", "k", "x", "y"}));
}

TEST(ExprAst, OperatorSugar) {
  auto e = (var("a") + var("b")) * Expr::lit(Value(2));
  EXPECT_EQ(e->to_string(), "(a + b) * 2");
}

TEST(ExprAst, PrintingMinimizesParens) {
  // Precedence-aware: multiplication binds tighter than addition.
  auto e1 = Expr::binary(BinOp::Add, Expr::var("a"),
                         Expr::binary(BinOp::Mul, Expr::var("b"), Expr::var("c")));
  EXPECT_EQ(e1->to_string(), "a + b * c");
  auto e2 = Expr::binary(BinOp::Mul,
                         Expr::binary(BinOp::Add, Expr::var("a"), Expr::var("b")),
                         Expr::var("c"));
  EXPECT_EQ(e2->to_string(), "(a + b) * c");
}

TEST(ExprAst, PrintingRespectsLeftAssociativity) {
  // (a - b) - c prints without parens; a - (b - c) needs them.
  auto left = Expr::binary(BinOp::Sub,
                           Expr::binary(BinOp::Sub, Expr::var("a"), Expr::var("b")),
                           Expr::var("c"));
  EXPECT_EQ(left->to_string(), "a - b - c");
  auto right = Expr::binary(BinOp::Sub, Expr::var("a"),
                            Expr::binary(BinOp::Sub, Expr::var("b"), Expr::var("c")));
  EXPECT_EQ(right->to_string(), "a - (b - c)");
}

TEST(ExprAst, PrintingLogicalAndUnary) {
  auto e = Expr::binary(
      BinOp::Or,
      Expr::binary(BinOp::Eq, Expr::var("x"), Expr::lit(Value("A1"))),
      Expr::binary(BinOp::Eq, Expr::var("x"), Expr::lit(Value("A11"))));
  EXPECT_EQ(e->to_string(), "x == 'A1' or x == 'A11'");
  auto n = Expr::unary(UnOp::Not, Expr::var("p"));
  EXPECT_EQ(n->to_string(), "not p");
  auto m = Expr::unary(UnOp::Neg, Expr::var("p"));
  EXPECT_EQ(m->to_string(), "-p");
}

TEST(ExprAst, StructuralEquality) {
  auto a = Expr::binary(BinOp::Add, Expr::var("x"), Expr::lit(Value(1)));
  auto b = Expr::binary(BinOp::Add, Expr::var("x"), Expr::lit(Value(1)));
  auto c = Expr::binary(BinOp::Add, Expr::var("y"), Expr::lit(Value(1)));
  auto d = Expr::binary(BinOp::Sub, Expr::var("x"), Expr::lit(Value(1)));
  EXPECT_TRUE(equal(a, b));
  EXPECT_FALSE(equal(a, c));
  EXPECT_FALSE(equal(a, d));
  EXPECT_TRUE(equal(a, a));
  EXPECT_FALSE(equal(a, nullptr));
}

TEST(ExprAst, OpClassification) {
  EXPECT_TRUE(is_arithmetic(BinOp::Add));
  EXPECT_TRUE(is_arithmetic(BinOp::Mod));
  EXPECT_FALSE(is_arithmetic(BinOp::Lt));
  EXPECT_TRUE(is_comparison(BinOp::Eq));
  EXPECT_FALSE(is_comparison(BinOp::And));
  EXPECT_TRUE(is_logical(BinOp::Or));
  EXPECT_FALSE(is_logical(BinOp::Ne));
}

TEST(Env, BindAndLookup) {
  Env env;
  env.bind("x", Value(3));
  env.bind("y", Value("s"));
  EXPECT_EQ(env.lookup("x"), Value(3));
  EXPECT_EQ(env.lookup("y"), Value("s"));
  EXPECT_TRUE(env.contains("x"));
  EXPECT_FALSE(env.contains("z"));
  EXPECT_THROW((void)env.lookup("z"), ProgramError);
}

TEST(Env, RebindOverwrites) {
  Env env;
  env.bind("x", Value(1));
  env.bind("x", Value(2));
  EXPECT_EQ(env.lookup("x"), Value(2));
  EXPECT_EQ(env.size(), 1u);
}

TEST(Eval, Fig1Expression) {
  // m = (x + y) - (k * j) with the paper's values: (1+5)-(3*2) = 0.
  auto e = Expr::binary(BinOp::Sub,
                        Expr::binary(BinOp::Add, Expr::var("x"), Expr::var("y")),
                        Expr::binary(BinOp::Mul, Expr::var("k"), Expr::var("j")));
  Env env;
  env.bind("x", Value(1));
  env.bind("y", Value(5));
  env.bind("k", Value(3));
  env.bind("j", Value(2));
  EXPECT_EQ(eval(e, env), Value(0));
}

TEST(Eval, UnboundVariableThrows) {
  Env env;
  EXPECT_THROW((void)eval(Expr::var("nope"), env), ProgramError);
}

TEST(Eval, ComparisonProducesBool) {
  Env env;
  env.bind("a", Value(3));
  EXPECT_EQ(eval(Expr::binary(BinOp::Gt, Expr::var("a"), Expr::lit(Value(0))), env),
            Value(true));
}

TEST(Eval, ShortCircuitAnd) {
  // rhs would throw (unbound), but lhs false short-circuits.
  Env env;
  env.bind("p", Value(false));
  auto e = Expr::binary(BinOp::And, Expr::var("p"), Expr::var("unbound"));
  EXPECT_EQ(eval(e, env), Value(false));
}

TEST(Eval, ShortCircuitOr) {
  Env env;
  env.bind("p", Value(true));
  auto e = Expr::binary(BinOp::Or, Expr::var("p"), Expr::var("unbound"));
  EXPECT_EQ(eval(e, env), Value(true));
}

TEST(Eval, UnaryOperators) {
  Env env;
  env.bind("x", Value(4));
  EXPECT_EQ(eval(Expr::unary(UnOp::Neg, Expr::var("x")), env), Value(-4));
  EXPECT_EQ(eval(Expr::unary(UnOp::Not, Expr::lit(Value(false))), env),
            Value(true));
}

TEST(Eval, ApplyMatchesValueOps) {
  EXPECT_EQ(apply(BinOp::Add, Value(2), Value(3)), Value(5));
  EXPECT_EQ(apply(BinOp::Mod, Value(7), Value(3)), Value(1));
  EXPECT_EQ(apply(BinOp::Le, Value(2), Value(2)), Value(true));
  EXPECT_EQ(apply(UnOp::Neg, Value(2)), Value(-2));
}

// Parameterized: every binary operator evaluates consistently with apply().
class EvalOpSweep : public ::testing::TestWithParam<BinOp> {};

TEST_P(EvalOpSweep, TreeEvalEqualsDirectApply) {
  const BinOp op = GetParam();
  const Value a(12), b(5);
  Env env;
  env.bind("a", a);
  env.bind("b", b);
  const Value direct = is_logical(op)
                           ? Value(op == BinOp::And ? (a.truthy() && b.truthy())
                                                    : (a.truthy() || b.truthy()))
                           : apply(op, a, b);
  EXPECT_EQ(eval(Expr::binary(op, Expr::var("a"), Expr::var("b")), env), direct)
      << to_string(op);
}

INSTANTIATE_TEST_SUITE_P(AllOps, EvalOpSweep,
                         ::testing::Values(BinOp::Add, BinOp::Sub, BinOp::Mul,
                                           BinOp::Div, BinOp::Mod, BinOp::Lt,
                                           BinOp::Le, BinOp::Gt, BinOp::Ge,
                                           BinOp::Eq, BinOp::Ne, BinOp::And,
                                           BinOp::Or));

}  // namespace
}  // namespace gammaflow::expr
