// Reaction semantics: validation, branch selection (if/else/where), firing,
// "by 0", shrink detection.
#include <gtest/gtest.h>

#include "gammaflow/expr/parser.hpp"
#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::gamma {
namespace {

using expr::parse_expression;

std::vector<expr::ExprPtr> tuple(std::initializer_list<const char*> fields) {
  std::vector<expr::ExprPtr> out;
  for (const char* f : fields) out.push_back(parse_expression(f));
  return out;
}

/// The reference walker's firing: Reaction::match, then Reaction::apply.
std::optional<std::vector<Element>> try_fire(
    const Reaction& r, std::span<const Element* const> elements) {
  expr::Env env;
  if (!r.match(elements, env)) return std::nullopt;
  return r.apply(env);
}

Reaction min_reaction() {
  // replace x, y by x where x < y  (Eq. (2) of the paper)
  return Reaction("Rmin", {Pattern::var("x"), Pattern::var("y")},
                  {Branch::when(parse_expression("x < y"), {tuple({"x"})})});
}

TEST(Reaction, ValidationRejectsEmptyReplaceList) {
  EXPECT_THROW(Reaction("R", {}, {Branch::unconditional({})}), ProgramError);
}

TEST(Reaction, ValidationRejectsNoBranches) {
  EXPECT_THROW(Reaction("R", {Pattern::var("x")}, {}), ProgramError);
}

TEST(Reaction, ValidationRejectsUnboundOutputVariable) {
  EXPECT_THROW(Reaction("R", {Pattern::var("x")},
                        {Branch::unconditional({tuple({"y"})})}),
               ProgramError);
}

TEST(Reaction, ValidationRejectsUnboundConditionVariable) {
  EXPECT_THROW(Reaction("R", {Pattern::var("x")},
                        {Branch::when(parse_expression("q > 0"), {})}),
               ProgramError);
}

TEST(Reaction, ValidationRejectsElseNotLast) {
  EXPECT_THROW(
      Reaction("R", {Pattern::var("x")},
               {Branch::otherwise({}),
                Branch::when(parse_expression("x > 0"), {tuple({"x"})})}),
      ProgramError);
}

TEST(Reaction, ValidationRejectsUnconditionalAmongOthers) {
  EXPECT_THROW(Reaction("R", {Pattern::var("x")},
                        {Branch::unconditional({tuple({"x"})}),
                         Branch::otherwise({})}),
               ProgramError);
}

TEST(Reaction, ValidationRejectsEmptyOutputTuple) {
  EXPECT_THROW(
      Reaction("R", {Pattern::var("x")}, {Branch::unconditional({{}})}),
      ProgramError);
}

TEST(Reaction, MinFiresWhenConditionHolds) {
  const Reaction r = min_reaction();
  const Element a{Value(2)}, b{Value(9)};
  const std::vector<const Element*> elems{&a, &b};
  const auto produced = try_fire(r, elems);
  ASSERT_TRUE(produced.has_value());
  ASSERT_EQ(produced->size(), 1u);
  EXPECT_EQ((*produced)[0], Element{Value(2)});
}

TEST(Reaction, MinDisabledWhenConditionFails) {
  const Reaction r = min_reaction();
  const Element a{Value(9)}, b{Value(2)};
  const std::vector<const Element*> elems{&a, &b};
  EXPECT_FALSE(try_fire(r, elems).has_value());
}

TEST(Reaction, WrongElementCountNeverFires) {
  const Reaction r = min_reaction();
  const Element a{Value(1)};
  const std::vector<const Element*> one{&a};
  EXPECT_FALSE(try_fire(r, one).has_value());
}

TEST(Reaction, ElseBranchFiresOnConditionFailure) {
  // Steer-style: if ctrl==1 forward, else delete (by 0).
  const Reaction r("St",
                   {Pattern::tagged("id1", "D", "v"), Pattern::tagged("id2", "C", "v")},
                   {Branch::when(parse_expression("id2 == 1"),
                                 {tuple({"id1", "'T'", "v"})}),
                    Branch::otherwise({})});
  const Element data = Element::tagged(Value(42), "D", 3);
  const Element ctrl_true = Element::tagged(Value(1), "C", 3);
  const Element ctrl_false = Element::tagged(Value(0), "C", 3);

  const std::vector<const Element*> taken{&data, &ctrl_true};
  auto fired = try_fire(r, taken);
  ASSERT_TRUE(fired.has_value());
  ASSERT_EQ(fired->size(), 1u);
  EXPECT_EQ((*fired)[0], Element::tagged(Value(42), "T", 3));

  const std::vector<const Element*> dropped{&data, &ctrl_false};
  auto deleted = try_fire(r, dropped);
  ASSERT_TRUE(deleted.has_value());   // fires (consumes)...
  EXPECT_TRUE(deleted->empty());      // ...producing nothing ("by 0")
}

TEST(Reaction, BranchOrderFirstTrueWins) {
  const Reaction r("R", {Pattern::var("x")},
                   {Branch::when(parse_expression("x > 10"), {tuple({"'big'"})}),
                    Branch::when(parse_expression("x > 5"), {tuple({"'mid'"})}),
                    Branch::otherwise({tuple({"'small'"})})});
  const Element e1{Value(20)}, e2{Value(7)}, e3{Value(1)};
  const std::vector<const Element*> v1{&e1}, v2{&e2}, v3{&e3};
  EXPECT_EQ((*try_fire(r, v1))[0], Element{Value("big")});
  EXPECT_EQ((*try_fire(r, v2))[0], Element{Value("mid")});
  EXPECT_EQ((*try_fire(r, v3))[0], Element{Value("small")});
}

TEST(Reaction, MultipleOutputTuples) {
  // R12-style duplication: one input, two outputs.
  const Reaction r("Dup", {Pattern::tagged("id1", "B1", "v")},
                   {Branch::unconditional({tuple({"id1", "'B12'", "v + 1"}),
                                           tuple({"id1", "'B13'", "v + 1"})})});
  const Element e = Element::tagged(Value(4), "B1", 0);
  const std::vector<const Element*> v{&e};
  const auto out = try_fire(r, v);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0], Element::tagged(Value(4), "B12", 1));
  EXPECT_EQ((*out)[1], Element::tagged(Value(4), "B13", 1));
}

TEST(Reaction, IsShrinking) {
  EXPECT_TRUE(min_reaction().is_shrinking());  // 2 in, 1 out
  const Reaction grow("G", {Pattern::var("x")},
                      {Branch::unconditional({tuple({"x"}), tuple({"x"})})});
  EXPECT_FALSE(grow.is_shrinking());
  const Reaction same("S", {Pattern::var("x")},
                      {Branch::unconditional({tuple({"x + 1"})})});
  EXPECT_FALSE(same.is_shrinking());
}

TEST(Reaction, ToStringIsPaperShaped) {
  const std::string s = min_reaction().to_string();
  EXPECT_NE(s.find("Rmin = replace x, y"), std::string::npos);
  EXPECT_NE(s.find("by [x] if x < y"), std::string::npos);
}

TEST(Reaction, MatchBindsWithoutFiring) {
  const Reaction r = min_reaction();
  const Element a{Value(9)}, b{Value(2)};
  const std::vector<const Element*> elems{&a, &b};
  expr::Env env;
  EXPECT_TRUE(r.match(elems, env));          // structural match succeeds
  EXPECT_EQ(env.lookup("x"), Value(9));
  EXPECT_FALSE(r.apply(env).has_value());    // but no branch fires
}

}  // namespace
}  // namespace gammaflow::gamma
