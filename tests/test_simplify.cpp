// Simplifier: constant folding, algebraic identities, safety (no folding of
// would-throw subtrees), substitution.
#include <gtest/gtest.h>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/expr/eval.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/expr/simplify.hpp"

namespace gammaflow::expr {
namespace {

ExprPtr parse(const char* s) { return parse_expression(s); }

TEST(Simplify, FoldsConstantArithmetic) {
  EXPECT_EQ(simplify(parse("2 + 3 * 4"))->literal(), Value(14));
  EXPECT_EQ(simplify(parse("(1 + 5) - (3 * 2)"))->literal(), Value(0));
}

TEST(Simplify, FoldsComparisonsAndLogic) {
  EXPECT_EQ(simplify(parse("3 < 4"))->literal(), Value(true));
  EXPECT_EQ(simplify(parse("true and false"))->literal(), Value(false));
  EXPECT_EQ(simplify(parse("not false"))->literal(), Value(true));
}

TEST(Simplify, AdditiveIdentity) {
  EXPECT_EQ(simplify(parse("x + 0"))->to_string(), "x");
  EXPECT_EQ(simplify(parse("0 + x"))->to_string(), "x");
  EXPECT_EQ(simplify(parse("x - 0"))->to_string(), "x");
}

TEST(Simplify, MultiplicativeIdentity) {
  EXPECT_EQ(simplify(parse("x * 1"))->to_string(), "x");
  EXPECT_EQ(simplify(parse("1 * x"))->to_string(), "x");
  EXPECT_EQ(simplify(parse("x / 1"))->to_string(), "x");
}

TEST(Simplify, BooleanIdentities) {
  EXPECT_EQ(simplify(parse("true and p < 1"))->to_string(), "p < 1");
  EXPECT_EQ(simplify(parse("p < 1 and true"))->to_string(), "p < 1");
  EXPECT_EQ(simplify(parse("false or p < 1"))->to_string(), "p < 1");
  EXPECT_EQ(simplify(parse("false and p"))->literal(), Value(false));
  EXPECT_EQ(simplify(parse("true or p"))->literal(), Value(true));
}

TEST(Simplify, DoubleNegation) {
  EXPECT_EQ(simplify(parse("--x"))->to_string(), "x");
  EXPECT_EQ(simplify(parse("not not (p == q)"))->to_string(), "p == q");
}

TEST(Simplify, LogicIdentitiesKeepTheBoolResult) {
  // `true and x` evaluates to Bool(truthy(x)): with x = 5 it is true, not 5.
  // Identities may drop the literal only when the other side is already a
  // Bool (comparison, not, and/or, Bool literal).
  Env env;
  env.bind("x", Value(5));
  for (const char* src :
       {"true and x", "x and true", "false or x", "x or false", "not not x",
        "false and x", "true or x", "true and x > 3", "x > 3 or false",
        "not not (x == 5)", "true and not x", "false or (x > 1 and x < 9)",
        "true and true"}) {
    const ExprPtr e = parse(src);
    EXPECT_EQ(eval(simplify(e), env), eval(e, env))
        << src << " simplified to " << simplify(e)->to_string();
  }
  EXPECT_EQ(simplify(parse("true and x"))->to_string(), "true and x");
  EXPECT_EQ(simplify(parse("true and x > 3"))->to_string(), "x > 3");
}

TEST(Simplify, DoesNotFoldThrowingSubtrees) {
  // 1/0 must survive so the runtime error is raised in context, not at
  // simplification time.
  const ExprPtr e = simplify(parse("1 / 0"));
  EXPECT_EQ(e->kind(), Expr::Kind::Binary);
  EXPECT_THROW((void)eval(e, Env{}), TypeError);
}

TEST(Simplify, LeavesVariablesIntact) {
  const ExprPtr e = simplify(parse("a + b * c"));
  EXPECT_EQ(e->to_string(), "a + b * c");
}

TEST(Simplify, PartialFolding) {
  EXPECT_EQ(simplify(parse("x + (2 * 3 - 6)"))->to_string(), "x");
  EXPECT_EQ(simplify(parse("(4 - 3) * y"))->to_string(), "y");
}

TEST(Simplify, Idempotent) {
  for (const char* src : {"a + 0 * b", "2 + 3", "x * 1 + 0", "not not q"}) {
    const ExprPtr once = simplify(parse(src));
    const ExprPtr twice = simplify(once);
    EXPECT_TRUE(equal(once, twice)) << src;
  }
}

TEST(Substitute, ReplacesNamedVariables) {
  const ExprPtr body = parse("a + b");
  const ExprPtr replaced =
      substitute(body, {{"a", parse("x * y")}});
  EXPECT_EQ(replaced->to_string(), "x * y + b");
}

TEST(Substitute, MultipleBindingsSimultaneous) {
  const ExprPtr replaced =
      substitute(parse("a + b"), {{"a", parse("b")}, {"b", parse("c")}});
  // simultaneous: the substituted 'b' (for a) is NOT re-substituted.
  EXPECT_EQ(replaced->to_string(), "b + c");
}

TEST(Substitute, UntouchedTreeIsShared) {
  const ExprPtr body = parse("x + y");
  const ExprPtr same = substitute(body, {{"zz", parse("1")}});
  EXPECT_EQ(body.get(), same.get());  // no rewrite => same node
}

// Property: simplify preserves evaluation on random trees and environments.
class SimplifySemantics : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplifySemantics, EvalUnchanged) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    // Arithmetic-only trees over small positive ints avoid div/0 dominance.
    std::function<ExprPtr(int)> gen = [&](int depth) -> ExprPtr {
      if (depth == 0 || rng.coin(0.35)) {
        if (rng.coin(0.4)) {
          return Expr::var(std::string(1, static_cast<char>('a' + rng.bounded(3))));
        }
        return Expr::lit(Value(static_cast<std::int64_t>(rng.bounded(9)) + 1));
      }
      static constexpr BinOp kOps[] = {BinOp::Add, BinOp::Sub, BinOp::Mul};
      return Expr::binary(kOps[rng.bounded(3)], gen(depth - 1), gen(depth - 1));
    };
    const ExprPtr tree = gen(4);
    Env env;
    env.bind("a", Value(static_cast<std::int64_t>(rng.bounded(20)) - 10));
    env.bind("b", Value(static_cast<std::int64_t>(rng.bounded(20)) - 10));
    env.bind("c", Value(static_cast<std::int64_t>(rng.bounded(20)) - 10));
    EXPECT_EQ(eval(tree, env), eval(simplify(tree), env))
        << tree->to_string() << " vs " << simplify(tree)->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifySemantics,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace gammaflow::expr
