// Indexed store: slot lifecycle, exact candidate buckets, compaction,
// match finding and enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/gamma/store.hpp"

namespace gammaflow::gamma {
namespace {

std::vector<expr::ExprPtr> tuple(std::initializer_list<const char*> fields) {
  std::vector<expr::ExprPtr> out;
  for (const char* f : fields) out.push_back(expr::parse_expression(f));
  return out;
}

/// Size of the bucket `p` probes (0 when there is none).
std::size_t bucket_size(const Store& s, const Pattern& p) {
  const Store::Bucket* b = s.bucket(p);
  return b == nullptr ? 0 : b->size();
}

TEST(Store, InsertRemoveLifecycle) {
  Store s;
  const auto id = s.insert(Element::tagged(Value(1), "A", 0));
  EXPECT_TRUE(s.alive(id));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.element(id), Element::tagged(Value(1), "A", 0));
  s.remove(id);
  EXPECT_FALSE(s.alive(id));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_THROW(s.remove(id), EngineError);
}

TEST(Store, SlotReuseAfterRemove) {
  Store s;
  const auto id1 = s.insert(Element{Value(1)});
  s.remove(id1);
  const auto id2 = s.insert(Element{Value(2)});
  EXPECT_EQ(id1, id2);  // free-list reuse
  EXPECT_EQ(s.element(id2), Element{Value(2)});
}

TEST(Store, VersionAdvancesOnMutation) {
  Store s;
  const auto v0 = s.version();
  const auto id = s.insert(Element{Value(1)});
  EXPECT_GT(s.version(), v0);
  const auto v1 = s.version();
  s.remove(id);
  EXPECT_GT(s.version(), v1);
}

TEST(Store, CandidatesByLabelBucket) {
  Store s;
  s.insert(Element::tagged(Value(1), "A", 0));
  s.insert(Element::tagged(Value(2), "B", 0));
  s.insert(Element::tagged(Value(3), "A", 1));
  const Pattern pa = Pattern::tagged("x", "A", "v");
  EXPECT_EQ(bucket_size(s, pa), 2u);
  const Pattern pz = Pattern::tagged("x", "Z", "v");
  EXPECT_EQ(bucket_size(s, pz), 0u);
}

TEST(Store, CandidatesByArityForUnconstrained) {
  Store s;
  s.insert(Element{Value(1)});
  s.insert(Element{Value(2)});
  s.insert(Element::labeled(Value(3), "A"));
  const Pattern p = Pattern::var("x");  // arity-1, no literal
  EXPECT_EQ(bucket_size(s, p), 2u);
}

TEST(Store, RemoveUnindexesTheIdFromItsBuckets) {
  Store s;
  const auto id1 = s.insert(Element::tagged(Value(1), "A", 0));
  const auto id2 = s.insert(Element::tagged(Value(2), "A", 0));
  const auto id3 = s.insert(Element::tagged(Value(3), "B", 0));
  s.remove(id1);
  const Pattern pa = Pattern::tagged("x", "A", "v");
  ASSERT_NE(s.bucket(pa), nullptr);
  EXPECT_EQ(*s.bucket(pa), (Store::Bucket{id2}));
  // The arity bucket loses the id too, keeping the survivors' order.
  const Pattern any3({PatternField::bind("x"), PatternField::bind("l"),
                      PatternField::bind("t")});
  ASSERT_NE(s.bucket(any3), nullptr);
  EXPECT_EQ(*s.bucket(any3), (Store::Bucket{id2, id3}));
}

TEST(Store, BucketsAreExactBeforeAnyCompaction) {
  // Lookups are read-only and see exactly the live occupants right after a
  // remove; compaction rewrites rows, never bucket contents.
  Store s;
  const auto id1 = s.insert(Element::tagged(Value(1), "A", 0));
  const auto id2 = s.insert(Element::tagged(Value(2), "A", 0));
  s.remove(id1);
  const Store& cs = s;
  const Pattern pa = Pattern::tagged("x", "A", "v");
  ASSERT_NE(cs.bucket(pa), nullptr);
  EXPECT_EQ(*cs.bucket(pa), (Store::Bucket{id2}));
  s.compact();
  EXPECT_EQ(*cs.bucket(pa), (Store::Bucket{id2}));
  // A (field,value) bucket that empties is dropped.
  s.remove(id2);
  EXPECT_EQ(cs.bucket(pa), nullptr);
}

TEST(Store, BucketsStayBoundedUnderSlotReuse) {
  // Regression: slot reuse re-registers the same id in the index; if the
  // old registration lingered, the label bucket would grow by one per
  // rewrite and matching would degrade to O(total firings). (Observed:
  // Fig. 2's reduced program at z=4000 took 54s instead of 0.2s.)
  Store s;
  for (int i = 0; i < 10000; ++i) {
    const auto id = s.insert(Element::tagged(Value(i), "L", 0));
    s.remove(id);
  }
  s.insert(Element::tagged(Value(-1), "L", 0));
  const Pattern p = Pattern::tagged("x", "L", "v");
  EXPECT_EQ(bucket_size(s, p), 1u);  // exactly the single live entry
  EXPECT_EQ(s.size(), 1u);
}

TEST(Store, RandomizedBucketsEqualLiveOccupantsInInsertionOrder) {
  // Differential against a model: after every one of 500 random inserts
  // and removes (slot reuse included), each arity bucket and each
  // (field,value) bucket must equal the live ids with that key, in
  // insertion order — and no bucket may exist for a key nobody carries.
  const std::vector<Value> domain = {Value(0),        Value(1),
                                     Value(2),        Value(std::string("a")),
                                     Value(std::string("b")), Value(true),
                                     Value(2.5),      Value()};
  Store s;
  std::vector<std::pair<Store::Id, Element>> live;  // insertion order
  Rng rng(2024);
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.bounded(5) < 3) {
      std::vector<Value> fields(1 + rng.bounded(3));
      for (Value& v : fields) v = domain[rng.bounded(domain.size())];
      Element e(std::move(fields));
      const Store::Id id = s.insert(e);
      live.emplace_back(id, std::move(e));
    } else {
      const std::size_t at = rng.bounded(live.size());
      s.remove(live[at].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }

    std::set<std::pair<std::size_t, std::size_t>> keys;  // (field, domain i)
    for (std::size_t arity = 1; arity <= 3; ++arity) {
      std::vector<PatternField> binders;
      for (std::size_t f = 0; f < arity; ++f) {
        binders.push_back(PatternField::bind("x" + std::to_string(f)));
      }
      Store::Bucket want;
      for (const auto& [id, e] : live) {
        if (e.arity() == arity) want.push_back(id);
      }
      const Store::Bucket* got = s.bucket(Pattern(binders));
      EXPECT_EQ(got == nullptr ? Store::Bucket{} : *got, want)
          << "arity " << arity << " at step " << step;

      for (std::size_t f = 0; f < arity; ++f) {
        for (std::size_t d = 0; d < domain.size(); ++d) {
          std::vector<PatternField> fields = binders;
          fields[f] = PatternField::literal(domain[d]);
          Store::Bucket key_want;
          for (const auto& [id, e] : live) {
            if (e.arity() > f && e.field(f) == domain[d]) {
              key_want.push_back(id);
            }
          }
          if (!key_want.empty()) keys.emplace(f, d);
          const Store::Bucket* key_got = s.bucket(Pattern(fields));
          if (key_want.empty()) {
            EXPECT_EQ(key_got, nullptr) << "field " << f << " value "
                                        << domain[d] << " at step " << step;
          } else {
            ASSERT_NE(key_got, nullptr) << "step " << step;
            EXPECT_EQ(*key_got, key_want) << "field " << f << " value "
                                          << domain[d] << " at step " << step;
          }
        }
      }
    }
    EXPECT_EQ(s.field_bucket_count(), keys.size()) << "step " << step;
    EXPECT_EQ(s.size(), live.size());
  }
}

TEST(Store, FieldIndexDoesNotLeakBucketsForRetiredValues) {
  // A long-lived session that keeps producing fresh values (keyed sums)
  // must not keep one index node per value ever seen: 10^5 insert/remove
  // cycles of distinct values leave only the live pairs' buckets behind.
  Store s;
  const auto keep = s.insert(Element::labeled(Value(-1), "K"));
  for (std::int64_t i = 0; i < 100000; ++i) {
    s.remove(s.insert(Element::labeled(Value(i), "K")));
  }
  // Live distinct (field,value) pairs: (0,-1) and (1,'K').
  EXPECT_LE(s.field_bucket_count(), 2u);
  EXPECT_EQ(bucket_size(s, Pattern::labeled("x", "K")), 1u);
  EXPECT_TRUE(s.alive(keep));
}

TEST(Store, NanFieldsUnindexCleanly) {
  // NaN != NaN as a Value, yet remove() must still find the NaN's bucket.
  Store s;
  const auto id = s.insert(Element{Value(std::nan(""))});
  EXPECT_EQ(s.field_bucket_count(), 1u);
  s.remove(id);
  EXPECT_EQ(s.field_bucket_count(), 0u);
  EXPECT_EQ(bucket_size(s, Pattern::var("x")), 0u);
}

TEST(Store, ToMultisetRoundTrip) {
  const Multiset m{Element::tagged(Value(1), "A", 0),
                   Element::tagged(Value(1), "A", 0),
                   Element::tagged(Value(2), "B", 1)};
  const Store s(m);
  EXPECT_EQ(s.to_multiset(), m);
}

Reaction adder() {
  // replace [a,'L'], [b,'R'] by [a+b,'S']
  return Reaction("Add",
                  {Pattern::labeled("a", "L"), Pattern::labeled("b", "R")},
                  {Branch::unconditional({tuple({"a + b", "'S'"})})});
}

TEST(FindMatch, FindsEnabledPair) {
  Store s;
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(3), "R"));
  const Reaction r = adder();
  const auto m = find_match(s, r);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->ids.size(), 2u);
  ASSERT_EQ(m->produced.size(), 1u);
  EXPECT_EQ(m->produced[0], Element::labeled(Value(5), "S"));
}

TEST(FindMatch, NoMatchWhenLabelMissing) {
  Store s;
  s.insert(Element::labeled(Value(2), "L"));
  EXPECT_FALSE(find_match(s, adder()).has_value());
}

TEST(FindMatch, ElementsMustBeDistinctInstances) {
  // min-style: replace x, y — one element cannot play both roles.
  Store s;
  s.insert(Element{Value(5)});
  const Reaction r("R", {Pattern::var("x"), Pattern::var("y")},
                   {Branch::unconditional({tuple({"x"})})});
  EXPECT_FALSE(find_match(s, r).has_value());
  s.insert(Element{Value(5)});  // a second equal instance IS allowed
  EXPECT_TRUE(find_match(s, r).has_value());
}

TEST(FindMatch, ConditionGatesMatch) {
  Store s;
  s.insert(Element{Value(9)});
  s.insert(Element{Value(2)});
  const Reaction r("Min", {Pattern::var("x"), Pattern::var("y")},
                   {Branch::when(expr::parse_expression("x < y"),
                                 {tuple({"x"})})});
  // Both orderings exist as candidate tuples; only (2,9) is enabled.
  const auto m = find_match(s, r);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->produced[0], Element{Value(2)});
}

TEST(FindMatch, CommitAppliesRewrite) {
  Store s;
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(3), "R"));
  const Reaction r = adder();
  const auto m = find_match(s, r);
  ASSERT_TRUE(m.has_value());
  commit(s, *m);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.to_multiset(), (Multiset{Element::labeled(Value(5), "S")}));
  EXPECT_FALSE(find_match(s, r).has_value());
}

TEST(FindMatch, RandomizedIsFairAcrossPairs) {
  // Two independent L/R pairs; randomized probing should pick different
  // first matches across seeds.
  Store s;
  s.insert(Element::labeled(Value(1), "L"));
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(10), "R"));
  const Reaction r = adder();
  std::set<Value> first_values;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    const auto m = find_match(s, r, &rng);
    ASSERT_TRUE(m.has_value());
    first_values.insert(m->produced[0].value());
  }
  EXPECT_EQ(first_values.size(), 2u);  // both 11 and 12 observed
}

TEST(EnumerateMatches, CountsOrderedTuples) {
  Store s;
  for (int i = 0; i < 4; ++i) s.insert(Element{Value(i)});
  const Reaction any2("R", {Pattern::var("x"), Pattern::var("y")},
                      {Branch::unconditional({tuple({"x"})})});
  std::size_t count =
      enumerate_matches(s, any2, 1000, [](const Match&) { return true; });
  EXPECT_EQ(count, 12u);  // 4 * 3 ordered pairs
}

TEST(EnumerateMatches, HonorsLimitAndEarlyStop) {
  Store s;
  for (int i = 0; i < 10; ++i) s.insert(Element{Value(i)});
  const Reaction any2("R", {Pattern::var("x"), Pattern::var("y")},
                      {Branch::unconditional({tuple({"x"})})});
  EXPECT_EQ(enumerate_matches(s, any2, 7, [](const Match&) { return true; }),
            7u);
  std::size_t seen = 0;
  enumerate_matches(s, any2, 1000, [&](const Match&) {
    return ++seen < 3;  // stop after 3
  });
  EXPECT_EQ(seen, 3u);
}

TEST(Store, DeadRowDebtAccruesOnRemoveAndCompactSettlesIt) {
  Store s;
  std::vector<Store::Id> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(s.insert(Element{Value(i)}));
  for (std::size_t i = 0; i < 4; ++i) s.remove(ids[i]);

  // The debt is exact: one dead row per removal, counted at remove() time.
  EXPECT_EQ(s.dead_rows(), 4u);
  EXPECT_FALSE(s.needs_compact());

  // The buckets already hold exactly the four survivors; only the dead
  // ROWS linger until compaction.
  const Store& cs = s;
  const Store::Bucket* b = cs.bucket(Pattern::var("x"));
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*b, (Store::Bucket{ids[4], ids[5], ids[6], ids[7]}));

  const auto compactions_before = s.column_compactions();
  s.compact();
  EXPECT_EQ(s.dead_rows(), 0u);
  EXPECT_GT(s.column_compactions(), compactions_before);
  const Store::Bucket* after = cs.bucket(Pattern::var("x"));
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(*after, (Store::Bucket{ids[4], ids[5], ids[6], ids[7]}));
  // Survivors keep their identity and content across the row rewrite.
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_TRUE(s.alive(ids[i]));
    EXPECT_EQ(s.element(ids[i]), Element{Value(static_cast<int>(i))});
  }
}

TEST(Store, NeedsCompactTripsAtTheDeadRowThreshold) {
  Store s;
  std::vector<Store::Id> ids;
  for (std::uint64_t i = 0; i < Store::kGarbageCompactThreshold; ++i) {
    ids.push_back(s.insert(Element{Value(static_cast<std::int64_t>(i))}));
  }
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) s.remove(ids[i]);
  EXPECT_FALSE(s.needs_compact());
  s.remove(ids.back());
  EXPECT_TRUE(s.needs_compact());

  // The next insert self-triggers collection, so paths that never check
  // needs_compact() (the worklist drain) still stay O(live).
  s.insert(Element{Value(-1)});
  EXPECT_EQ(s.dead_rows(), 0u);
  EXPECT_FALSE(s.needs_compact());
  EXPECT_GT(s.column_compactions(), 0u);
}

TEST(Store, SpillSidecarRoundTripsNonIntFields) {
  // Every non-Int kind goes through the tag/spill sidecar; materialization
  // must reproduce the exact Value (kind and payload), before and after the
  // columns are rewritten.
  Store s;
  const Element mixed{Value(7), Value("label"), Value(2.5), Value(true),
                      Value()};
  const auto id = s.insert(mixed);
  const auto dead = s.insert(Element{Value(1), Value("x"), Value(0.0),
                                     Value(false), Value()});
  EXPECT_EQ(s.element(id), mixed);
  s.remove(dead);
  s.compact();
  EXPECT_TRUE(s.alive(id));
  EXPECT_EQ(s.element(id), mixed);
  EXPECT_EQ(s.to_multiset(), Multiset{mixed});
}

TEST(Store, LivenessBitmapTracksRows) {
  Store s;
  std::vector<Store::Id> ids;
  for (int i = 0; i < 130; ++i) {  // spans three 64-bit bitmap words
    ids.push_back(s.insert(Element::labeled(Value(i), "L")));
  }
  for (int i = 0; i < 130; i += 2) s.remove(ids[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 130; ++i) {
    const Store::RowRef ref = s.row(ids[static_cast<std::size_t>(i)]);
    ASSERT_NE(ref.group, nullptr);
    EXPECT_EQ(ref.group->row_live(ref.row), i % 2 == 1) << i;
  }
  EXPECT_EQ(s.dead_rows(), 65u);
}

TEST(Store, MatchPatternAgreesWithElementMatch) {
  Store s;
  const auto id = s.insert(Element::tagged(Value(41), "A", 3));
  const Pattern hit = Pattern::tagged("x", "A", "v");
  const Pattern missLabel = Pattern::tagged("x", "B", "v");
  const Pattern missArity = Pattern::labeled("x", "A");
  for (const Pattern* p : {&hit, &missLabel, &missArity}) {
    expr::Env direct;
    expr::Env viaColumns;
    EXPECT_EQ(p->match(s.element(id), direct),
              s.match_pattern(*p, id, viaColumns));
  }
  expr::Env env;
  ASSERT_TRUE(s.match_pattern(hit, id, env));
  EXPECT_EQ(*env.find("x"), Value(41));
  EXPECT_EQ(*env.find("v"), Value(3));
}

TEST(EnumerateMatches, OnlyEnabledMatchesVisited) {
  Store s;
  s.insert(Element{Value(5)});
  s.insert(Element{Value(5)});
  const Reaction strict("R", {Pattern::var("x"), Pattern::var("y")},
                        {Branch::when(expr::parse_expression("x < y"), {})});
  EXPECT_EQ(
      enumerate_matches(s, strict, 100, [](const Match&) { return true; }),
      0u);
}

}  // namespace
}  // namespace gammaflow::gamma
