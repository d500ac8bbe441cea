// Pattern matching: binders, literal constraints, repeated binders as
// equality constraints (the paper's shared tag variable v), key constraints.
#include <gtest/gtest.h>

#include "gammaflow/gamma/pattern.hpp"

namespace gammaflow::gamma {
namespace {

TEST(PatternField, BinderBindsFirstOccurrence) {
  expr::Env env;
  const auto f = PatternField::bind("x");
  EXPECT_TRUE(f.match(Value(5), env));
  EXPECT_EQ(env.lookup("x"), Value(5));
}

TEST(PatternField, BinderChecksSecondOccurrence) {
  expr::Env env;
  env.bind("x", Value(5));
  const auto f = PatternField::bind("x");
  EXPECT_TRUE(f.match(Value(5), env));
  EXPECT_FALSE(f.match(Value(6), env));
}

TEST(PatternField, LiteralConstrains) {
  expr::Env env;
  const auto f = PatternField::literal(Value("A1"));
  EXPECT_TRUE(f.match(Value("A1"), env));
  EXPECT_FALSE(f.match(Value("A2"), env));
  EXPECT_FALSE(f.match(Value(1), env));
  EXPECT_EQ(env.size(), 0u);  // literals never bind
}

TEST(Pattern, TaggedConventionMatches) {
  const Pattern p = Pattern::tagged("id1", "B12", "v");
  expr::Env env;
  EXPECT_TRUE(p.match(Element::tagged(Value(3), "B12", 7), env));
  EXPECT_EQ(env.lookup("id1"), Value(3));
  EXPECT_EQ(env.lookup("v"), Value(std::int64_t{7}));
}

TEST(Pattern, TaggedConventionRejectsWrongLabel) {
  const Pattern p = Pattern::tagged("id1", "B12", "v");
  expr::Env env;
  EXPECT_FALSE(p.match(Element::tagged(Value(3), "B13", 7), env));
}

TEST(Pattern, ArityMismatchRejects) {
  const Pattern p = Pattern::tagged("id1", "B12", "v");
  expr::Env env;
  EXPECT_FALSE(p.match(Element::labeled(Value(3), "B12"), env));
  EXPECT_FALSE(p.match(Element{Value(3)}, env));
}

TEST(Pattern, SharedTagVariableForcesSameIteration) {
  // The paper's R16: [id1,'B13',v], [id2,'B15',v] — both tags must agree.
  const Pattern p1 = Pattern::tagged("id1", "B13", "v");
  const Pattern p2 = Pattern::tagged("id2", "B15", "v");
  expr::Env env;
  ASSERT_TRUE(p1.match(Element::tagged(Value(9), "B13", 4), env));
  EXPECT_TRUE(p2.match(Element::tagged(Value(1), "B15", 4), env));

  expr::Env env2;
  ASSERT_TRUE(p1.match(Element::tagged(Value(9), "B13", 4), env2));
  EXPECT_FALSE(p2.match(Element::tagged(Value(1), "B15", 5), env2));
}

TEST(Pattern, RepeatedValueBinderIsEqualityConstraint) {
  // replace [x, 'L'], [x, 'R'] — both values must be equal.
  const Pattern p1 = Pattern::labeled("x", "L");
  const Pattern p2 = Pattern::labeled("x", "R");
  expr::Env env;
  ASSERT_TRUE(p1.match(Element::labeled(Value(5), "L"), env));
  EXPECT_TRUE(p2.match(Element::labeled(Value(5), "R"), env));
  expr::Env env2;
  ASSERT_TRUE(p1.match(Element::labeled(Value(5), "L"), env2));
  EXPECT_FALSE(p2.match(Element::labeled(Value(6), "R"), env2));
}

TEST(Pattern, BareVarMatchesAnySingleField) {
  const Pattern p = Pattern::var("x");
  expr::Env env;
  EXPECT_TRUE(p.match(Element{Value(42)}, env));
  EXPECT_EQ(env.lookup("x"), Value(42));
  expr::Env env2;
  EXPECT_FALSE(p.match(Element::labeled(Value(1), "A"), env2));  // arity 2
}

TEST(Pattern, LabelVariableBindsLabel) {
  // The paper's R11: [id1, x, v] — x captures the label for the condition.
  const Pattern p({PatternField::bind("id1"), PatternField::bind("x"),
                   PatternField::bind("v")});
  expr::Env env;
  ASSERT_TRUE(p.match(Element::tagged(Value(5), "A11", 2), env));
  EXPECT_EQ(env.lookup("x"), Value("A11"));
}

TEST(Pattern, KeyConstraintFindsFirstLiteral) {
  const Pattern p = Pattern::tagged("id1", "B12", "v");
  const auto key = p.key_field();
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, 1u);
  EXPECT_EQ(p.fields()[*key].value(), Value("B12"));
}

TEST(Pattern, KeyConstraintAbsentForAllBinders) {
  const Pattern p({PatternField::bind("a"), PatternField::bind("b")});
  EXPECT_FALSE(p.key_field().has_value());
}

TEST(Pattern, BindersDeduplicated) {
  const Pattern p({PatternField::bind("x"), PatternField::bind("y"),
                   PatternField::bind("x")});
  EXPECT_EQ(p.binders(), (std::vector<std::string>{"x", "y"}));
}

TEST(Pattern, PrintingConventions) {
  EXPECT_EQ(Pattern::var("x").to_string(), "x");
  EXPECT_EQ(Pattern::tagged("id1", "A1", "v").to_string(), "[id1, 'A1', v]");
  EXPECT_EQ(Pattern::labeled("id2", "B2").to_string(), "[id2, 'B2']");
}

TEST(Pattern, NumericLiteralConstraint) {
  const Pattern p({PatternField::bind("x"), PatternField::literal(Value(0))});
  expr::Env env;
  EXPECT_TRUE(p.match(Element{Value(9), Value(0)}, env));
  EXPECT_FALSE(p.match(Element{Value(9), Value(1)}, env));
  // Structural equality: int 0 != real 0.0 in pattern fields.
  EXPECT_FALSE(p.match(Element{Value(9), Value(0.0)}, env));
}

}  // namespace
}  // namespace gammaflow::gamma
