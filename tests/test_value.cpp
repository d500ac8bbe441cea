// Unit tests for the Value scalar: kinds, promotion, checked arithmetic,
// comparisons, truthiness, printing, hashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_set>

#include "gammaflow/common/value.hpp"

namespace gammaflow {
namespace {

TEST(Value, DefaultIsNil) {
  Value v;
  EXPECT_EQ(v.kind(), ValueKind::Nil);
  EXPECT_TRUE(v.is_nil());
  EXPECT_FALSE(v.is_numeric());
}

TEST(Value, KindPredicates) {
  EXPECT_TRUE(Value(std::int64_t{3}).is_int());
  EXPECT_TRUE(Value(3).is_int());
  EXPECT_TRUE(Value(2.5).is_real());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value("hi").is_str());
  EXPECT_TRUE(Value(3).is_numeric());
  EXPECT_TRUE(Value(2.5).is_numeric());
  EXPECT_FALSE(Value(true).is_numeric());
}

TEST(Value, AccessorsReturnPayload) {
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value("abc").as_str(), "abc");
}

TEST(Value, AccessorsThrowOnWrongKind) {
  EXPECT_THROW((void)Value(7).as_real(), TypeError);
  EXPECT_THROW((void)Value(2.5).as_int(), TypeError);
  EXPECT_THROW((void)Value("x").as_bool(), TypeError);
  EXPECT_THROW((void)Value(true).as_str(), TypeError);
  EXPECT_THROW((void)Value().as_int(), TypeError);
}

TEST(Value, ToRealWidensInt) {
  EXPECT_DOUBLE_EQ(Value(7).to_real(), 7.0);
  EXPECT_DOUBLE_EQ(Value(2.5).to_real(), 2.5);
  EXPECT_THROW((void)Value("x").to_real(), TypeError);
}

TEST(Value, Truthy) {
  EXPECT_TRUE(Value(true).truthy());
  EXPECT_FALSE(Value(false).truthy());
  EXPECT_TRUE(Value(1).truthy());
  EXPECT_TRUE(Value(-3).truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_THROW((void)Value(1.5).truthy(), TypeError);
  EXPECT_THROW((void)Value("t").truthy(), TypeError);
}

TEST(Value, AddIntInt) { EXPECT_EQ(add(Value(2), Value(3)), Value(5)); }
TEST(Value, AddPromotesToReal) {
  EXPECT_EQ(add(Value(2), Value(0.5)), Value(2.5));
  EXPECT_EQ(add(Value(0.5), Value(2)), Value(2.5));
}
TEST(Value, AddConcatenatesStrings) {
  EXPECT_EQ(add(Value("ab"), Value("cd")), Value("abcd"));
}
TEST(Value, AddRejectsMixedKinds) {
  EXPECT_THROW((void)add(Value(1), Value("x")), TypeError);
  EXPECT_THROW((void)add(Value(true), Value(true)), TypeError);
}

TEST(Value, SubMulBasics) {
  EXPECT_EQ(sub(Value(7), Value(9)), Value(-2));
  EXPECT_EQ(mul(Value(3), Value(-4)), Value(-12));
  EXPECT_EQ(mul(Value(1.5), Value(2)), Value(3.0));
}

TEST(Value, IntDivisionTruncates) {
  EXPECT_EQ(div(Value(7), Value(2)), Value(3));
  EXPECT_EQ(div(Value(-7), Value(2)), Value(-3));
}
TEST(Value, RealDivision) { EXPECT_EQ(div(Value(7.0), Value(2)), Value(3.5)); }
TEST(Value, DivByZeroThrows) {
  EXPECT_THROW((void)div(Value(1), Value(0)), TypeError);
  EXPECT_THROW((void)div(Value(1.0), Value(0.0)), TypeError);
}

TEST(Value, Mod) {
  EXPECT_EQ(mod(Value(7), Value(3)), Value(1));
  EXPECT_THROW((void)mod(Value(7), Value(0)), TypeError);
  EXPECT_THROW((void)mod(Value(7.0), Value(3)), TypeError);
}

TEST(Value, Neg) {
  EXPECT_EQ(neg(Value(5)), Value(-5));
  EXPECT_EQ(neg(Value(-2.5)), Value(2.5));
  EXPECT_THROW((void)neg(Value("x")), TypeError);
}

TEST(Value, IntArithmeticWrapsAtTheRange) {
  // Two's-complement wrap-around, defined rather than signed overflow (a
  // multiset literal can reach it: `[9223372036854775807 * 2]`).
  const Value max(std::numeric_limits<std::int64_t>::max());
  const Value min(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(add(max, Value(1)), min);
  EXPECT_EQ(sub(min, Value(1)), max);
  EXPECT_EQ(mul(max, Value(2)), Value(-2));
  EXPECT_EQ(neg(min), min);
}

TEST(Value, ComparisonsNumeric) {
  EXPECT_EQ(cmp_lt(Value(1), Value(2)), Value(true));
  EXPECT_EQ(cmp_lt(Value(2), Value(2)), Value(false));
  EXPECT_EQ(cmp_le(Value(2), Value(2)), Value(true));
  EXPECT_EQ(cmp_gt(Value(3), Value(2)), Value(true));
  EXPECT_EQ(cmp_ge(Value(2), Value(3)), Value(false));
  EXPECT_EQ(cmp_lt(Value(1), Value(1.5)), Value(true));  // cross-kind numeric
}

TEST(Value, ComparisonsString) {
  EXPECT_EQ(cmp_lt(Value("a"), Value("b")), Value(true));
  EXPECT_EQ(cmp_ge(Value("b"), Value("b")), Value(true));
}

TEST(Value, ComparisonsRejectMixed) {
  EXPECT_THROW((void)cmp_lt(Value(1), Value("a")), TypeError);
  EXPECT_THROW((void)cmp_gt(Value(true), Value(1)), TypeError);
}

TEST(Value, EqualityStructuralForSameKind) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value(1.0));  // kinds differ structurally
}

TEST(Value, CmpEqCrossesNumericKinds) {
  // Semantic equality used by reaction conditions treats 1 == 1.0.
  EXPECT_EQ(cmp_eq(Value(1), Value(1.0)), Value(true));
  EXPECT_EQ(cmp_ne(Value(1), Value(1.0)), Value(false));
  EXPECT_EQ(cmp_eq(Value(1), Value("1")), Value(false));
  EXPECT_EQ(cmp_eq(Value("a"), Value("a")), Value(true));
}

TEST(Value, Logic) {
  EXPECT_EQ(logic_and(Value(true), Value(1)), Value(true));
  EXPECT_EQ(logic_and(Value(true), Value(0)), Value(false));
  EXPECT_EQ(logic_or(Value(false), Value(0)), Value(false));
  EXPECT_EQ(logic_or(Value(false), Value(7)), Value(true));
  EXPECT_EQ(logic_not(Value(0)), Value(true));
  EXPECT_THROW((void)logic_and(Value("x"), Value(true)), TypeError);
}

TEST(Value, PrintingIsUnambiguous) {
  EXPECT_EQ(Value(3).to_string(), "3");
  EXPECT_EQ(Value(3.0).to_string(), "3.0");  // real keeps decimal marker
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value("hi").to_string(), "'hi'");
  EXPECT_EQ(Value().to_string(), "nil");
}

TEST(Value, OrderingIsTotalWithinProcess) {
  // kind-major order; payload order within a kind.
  EXPECT_TRUE(Value(1) < Value(2));
  EXPECT_TRUE(Value("a") < Value("b"));
  EXPECT_FALSE(Value(2) < Value(2));
}

TEST(Value, HashDistinguishesKindAndPayload) {
  std::unordered_set<Value> set;
  set.insert(Value(1));
  set.insert(Value(1.0));
  set.insert(Value("1"));
  set.insert(Value(true));
  set.insert(Value());
  EXPECT_EQ(set.size(), 5u);
  EXPECT_TRUE(set.contains(Value(1)));
  EXPECT_FALSE(set.contains(Value(2)));
}

TEST(Value, KindNames) {
  EXPECT_STREQ(to_string(ValueKind::Int), "int");
  EXPECT_STREQ(to_string(ValueKind::Real), "real");
  EXPECT_STREQ(to_string(ValueKind::Bool), "bool");
  EXPECT_STREQ(to_string(ValueKind::Str), "str");
  EXPECT_STREQ(to_string(ValueKind::Nil), "nil");
}

// Parameterized sweep: arithmetic identities hold across a range of ints.
class ValueArithSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ValueArithSweep, AddSubRoundTrip) {
  const std::int64_t n = GetParam();
  EXPECT_EQ(sub(add(Value(n), Value(17)), Value(17)), Value(n));
}

TEST_P(ValueArithSweep, MulDivRoundTripNonZero) {
  const std::int64_t n = GetParam();
  EXPECT_EQ(div(mul(Value(n), Value(13)), Value(13)), Value(n));
}

TEST_P(ValueArithSweep, CompareReflexive) {
  const Value v(GetParam());
  EXPECT_EQ(cmp_le(v, v), Value(true));
  EXPECT_EQ(cmp_ge(v, v), Value(true));
  EXPECT_EQ(cmp_lt(v, v), Value(false));
  EXPECT_EQ(cmp_eq(v, v), Value(true));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ValueArithSweep,
                         ::testing::Values(-1000000, -17, -1, 0, 1, 2, 42,
                                           999983, 1LL << 40));

}  // namespace
}  // namespace gammaflow
