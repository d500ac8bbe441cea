// Indexed store: slot lifecycle, exact candidate buckets, compaction,
// match finding and enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <tuple>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::gamma {
namespace {

using runtime::MatchPipeline;
using runtime::MatchSite;

/// One find on a fresh MatchSite (an empty memo), its match copied out.
std::optional<Match> find_fresh(Store& s, const Reaction& r,
                                Rng* rng = nullptr) {
  MatchSite site;
  if (!MatchPipeline::find(s, r, rng, site)) return std::nullopt;
  return site.match();
}

/// Every enabled match a fresh MatchSite's enumerate visits.
std::size_t enumerate_fresh(Store& s, const Reaction& r, std::size_t limit,
                            const std::function<bool(const Match&)>& fn) {
  MatchSite site;
  return MatchPipeline::enumerate(s, r, limit, site, fn);
}

std::vector<expr::ExprPtr> tuple(std::initializer_list<const char*> fields) {
  std::vector<expr::ExprPtr> out;
  for (const char* f : fields) out.push_back(expr::parse_expression(f));
  return out;
}

/// The match's ids as a vector.
std::vector<Store::Id> ids(const Match& m) {
  return {m.ids.begin(), m.ids.end()};
}

/// The bucket's ids in order, read one by one (a select per id on a group).
std::vector<Store::Id> list(Store::Candidates bucket) {
  std::vector<Store::Id> out;
  for (std::size_t k = 0; k < bucket.size(); ++k) out.push_back(bucket[k]);
  return out;
}

/// The reaction's literals as `s`'s cells, none pinned: a string `s` has
/// never interned is a cell no field holds.
std::vector<Store::Cell> literal_cells(const Store& s,
                                       const CompiledReaction& compiled) {
  std::vector<Store::Cell> cells;
  for (const Value& v : compiled.literals()) {
    cells.push_back(s.cell_of(v).value_or(Store::Cell{Store::kTextTag, 0}));
  }
  return cells;
}

/// The (field 1, `label`) bucket as a view (empty when there is none).
Store::Candidates label_bucket(const Store& s, const char* label) {
  return {s.field_bucket(1, Value(label)), nullptr};
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
  Store s(FieldSet{1});
  s.insert(Element::tagged(Value(1), "A", 0));
  s.insert(Element::tagged(Value(2), "B", 0));
  s.insert(Element::tagged(Value(3), "A", 1));
  EXPECT_EQ(label_bucket(s, "A").size(), 2u);
  EXPECT_EQ(label_bucket(s, "Z").size(), 0u);
}

TEST(Store, CandidatesByArityForUnconstrained) {
  Store s;
  s.insert(Element{Value(1)});
  s.insert(Element{Value(2)});
  s.insert(Element::labeled(Value(3), "A"));
  EXPECT_EQ(s.arity_bucket(1).size(), 2u);
}

TEST(Store, RemoveUnindexesTheIdFromItsBuckets) {
  Store s(FieldSet{1});
  const auto id1 = s.insert(Element::tagged(Value(1), "A", 0));
  const auto id2 = s.insert(Element::tagged(Value(2), "A", 0));
  const auto id3 = s.insert(Element::tagged(Value(3), "B", 0));
  s.remove(id1);
  ASSERT_TRUE(label_bucket(s, "A"));
  EXPECT_EQ(list(label_bucket(s, "A")), (Store::Bucket{id2}));
  // The arity bucket loses the id too, keeping the survivors' order.
  ASSERT_TRUE(s.arity_bucket(3));
  EXPECT_EQ(list(s.arity_bucket(3)), (Store::Bucket{id2, id3}));
}

TEST(Store, BucketsAreExactBeforeAnyCompaction) {
  // Lookups are read-only and see exactly the live occupants right after a
  // remove; compaction rewrites rows, never bucket contents.
  Store s(FieldSet{1});
  const auto id1 = s.insert(Element::tagged(Value(1), "A", 0));
  const auto id2 = s.insert(Element::tagged(Value(2), "A", 0));
  s.remove(id1);
  const Store& cs = s;
  ASSERT_TRUE(label_bucket(cs, "A"));
  EXPECT_EQ(list(label_bucket(cs, "A")), (Store::Bucket{id2}));
  s.compact();
  EXPECT_EQ(list(label_bucket(cs, "A")), (Store::Bucket{id2}));
  // A (field,value) bucket that empties is dropped.
  s.remove(id2);
  EXPECT_FALSE(label_bucket(cs, "A"));
}

TEST(Store, FieldBucketHoldsEveryIdAJoinCanMatch) {
  // The join probe reads the (field, bound value) bucket in place of the
  // base bucket, so that bucket must contain every id the joined pattern
  // can match. Keys are index identity: ±0.0 share a bucket (and match
  // each other), Int 1 and Real 1.0 do not (and never match each other).
  Store s(FieldSet{1, 2});
  const auto neg_zero = s.insert(Element{Value(1), Value(-0.0)});
  const auto pos_zero = s.insert(Element{Value(2), Value(0.0)});
  const auto int_one = s.insert(Element{Value(3), Value(1)});
  const auto real_one = s.insert(Element{Value(4), Value(1.0)});
  const auto nan = s.insert(Element{Value(5), Value(std::nan(""))});
  const auto wide = s.insert(Element{Value(6), Value(0.0), Value("w")});

  const Store::Bucket* zero = s.field_bucket(1, Value(0.0));
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(s.field_bucket(1, Value(-0.0)), zero);
  EXPECT_EQ(*zero, (Store::Bucket{neg_zero, pos_zero, wide}));
  EXPECT_EQ(*s.field_bucket(1, Value(1)), (Store::Bucket{int_one}));
  EXPECT_EQ(*s.field_bucket(1, Value(1.0)), (Store::Bucket{real_one}));
  EXPECT_EQ(*s.field_bucket(1, Value(std::nan(""))), (Store::Bucket{nan}));
  EXPECT_EQ(s.field_bucket(1, Value(7)), nullptr);
  EXPECT_EQ(s.field_bucket(2, Value(0.0)), nullptr);

  // Superset: under k bound to each key, every id [y, k] matches is in
  // the (1, k) bucket; a NaN key matches nothing at all. The frame ops are
  // those of the join's inner pattern: slot 0 is k, bound by the outer one.
  const Reaction join("J",
                      {Pattern({PatternField::bind("x"), PatternField::bind("k")}),
                       Pattern({PatternField::bind("y"), PatternField::bind("k")})},
                      {Branch::unconditional({tuple({"x + y", "k"})})});
  const std::span<const FieldOp> joined(join.compiled().field_ops()[1]);
  ASSERT_EQ(join.compiled().slots(),
            (std::vector<std::string>{"x", "k", "y"}));
  const std::vector<Store::Id> ids{neg_zero, pos_zero, int_one,
                                   real_one, nan,      wide};
  for (const Value& key : {Value(-0.0), Value(0.0), Value(1), Value(1.0),
                          Value(std::nan(""))}) {
    const Store::Bucket* bucket = s.field_bucket(1, key);
    ASSERT_NE(bucket, nullptr) << key;
    for (const Store::Id id : ids) {
      Frame frame(3);
      frame.bind_ref(1, key);
      if (!s.bind(joined, id, frame, {})) continue;
      EXPECT_FALSE(key.is_real() && std::isnan(key.as_real())) << id;
      EXPECT_NE(std::find(bucket->begin(), bucket->end(), id), bucket->end())
          << key << " id " << id;
    }
  }
}

TEST(Store, ScanPositionContinuesTheWiderCyclicScan) {
  // A cyclic scan of the narrow bucket from scan_position(narrow, id)
  // visits the ids both buckets share in the order a cyclic scan of the
  // wider bucket from `id` does.
  Store s(FieldSet{1});
  std::vector<Store::Id> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.insert(Element{Value(i), Value(i % 2 == 1 ? "odd" : "even")}));
  }
  const Store::Candidates wide = s.arity_bucket(2);
  const Store::Bucket& odd = *s.field_bucket(1, Value("odd"));
  ASSERT_EQ(list(wide), ids);
  ASSERT_EQ(odd, (Store::Bucket{ids[1], ids[3], ids[5]}));
  for (std::size_t start = 0; start < wide.size(); ++start) {
    std::vector<Store::Id> want;
    for (std::size_t t = 0; t < wide.size(); ++t) {
      const Store::Id id = wide[(start + t) % wide.size()];
      if (std::find(odd.begin(), odd.end(), id) != odd.end()) {
        want.push_back(id);
      }
    }
    const std::size_t from = s.scan_position(odd, wide[start]);
    std::vector<Store::Id> got;
    for (std::size_t t = 0; t < odd.size(); ++t) {
      got.push_back(odd[(from + t) % odd.size()]);
    }
    EXPECT_EQ(got, want) << "start " << start;
  }
  // Past the narrow bucket's last entry the scan wraps to its front.
  EXPECT_EQ(s.scan_position(odd, ids[0]), 0u);
}

TEST(Store, BucketsStayBoundedUnderSlotReuse) {
  // Regression: slot reuse re-registers the same id in the index; if the
  // old registration lingered, the label bucket would grow by one per
  // rewrite and matching would degrade to O(total firings). (Observed:
  // Fig. 2's reduced program at z=4000 took 54s instead of 0.2s.)
  Store s(FieldSet{1});
  for (int i = 0; i < 10000; ++i) {
    const auto id = s.insert(Element::tagged(Value(i), "L", 0));
    s.remove(id);
  }
  s.insert(Element::tagged(Value(-1), "L", 0));
  EXPECT_EQ(label_bucket(s, "L").size(), 1u);  // exactly the single live entry
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
  Store s(FieldSet{0, 1, 2});
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
      Store::Bucket want;
      for (const auto& [id, e] : live) {
        if (e.arity() == arity) want.push_back(id);
      }
      EXPECT_EQ(list(s.arity_bucket(arity)), want)
          << "arity " << arity << " at step " << step;

      for (std::size_t f = 0; f < arity; ++f) {
        for (std::size_t d = 0; d < domain.size(); ++d) {
          Store::Bucket key_want;
          for (const auto& [id, e] : live) {
            if (e.arity() > f && e.field(f) == domain[d]) {
              key_want.push_back(id);
            }
          }
          if (!key_want.empty()) keys.emplace(f, d);
          const Store::Candidates key_got{s.field_bucket(f, domain[d]),
                                          nullptr};
          if (key_want.empty()) {
            EXPECT_FALSE(key_got) << "field " << f << " value " << domain[d]
                                  << " at step " << step;
          } else {
            ASSERT_TRUE(key_got) << "step " << step;
            EXPECT_EQ(list(key_got), key_want)
                << "field " << f << " value " << domain[d] << " at step "
                << step;
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
  Store s(FieldSet{0, 1});
  const auto keep = s.insert(Element::labeled(Value(-1), "K"));
  for (std::int64_t i = 0; i < 100000; ++i) {
    s.remove(s.insert(Element::labeled(Value(i), "K")));
  }
  // Live distinct (field,value) pairs: (0,-1) and (1,'K').
  EXPECT_LE(s.field_bucket_count(), 2u);
  EXPECT_EQ(label_bucket(s, "K").size(), 1u);
  EXPECT_TRUE(s.alive(keep));
}

TEST(Store, NanFieldsUnindexCleanly) {
  // NaN != NaN as a Value, yet remove() must still find the NaN's bucket.
  Store s(FieldSet{0});
  const auto id = s.insert(Element{Value(std::nan(""))});
  EXPECT_EQ(s.field_bucket_count(), 1u);
  s.remove(id);
  EXPECT_EQ(s.field_bucket_count(), 0u);
  EXPECT_EQ(s.arity_bucket(1).size(), 0u);
}

/// The same value bit for bit: what a store must give back (Value == calls
/// a NaN unequal to itself and -0.0 equal to 0.0).
bool identical(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (!a.is_real()) return a == b;
  return std::bit_cast<std::uint64_t>(a.as_real()) ==
         std::bit_cast<std::uint64_t>(b.as_real());
}

bool identical(const Element& a, const Element& b) {
  if (a.arity() != b.arity()) return false;
  for (std::size_t f = 0; f < a.arity(); ++f) {
    if (!identical(a.field(f), b.field(f))) return false;
  }
  return true;
}

/// Bucket key identity: Value ==, except that every NaN shares one key.
bool same_key(const Value& a, const Value& b) {
  return a == b || (a.is_real() && b.is_real() && std::isnan(a.as_real()) &&
                    std::isnan(b.as_real()));
}

TEST(Store, MixedKindsAgreeWithANaiveMultisetModel) {
  // Differential against a plain list of elements over every field kind,
  // through random inserts, removes and compactions: Ints, Reals (+-0.0
  // and NaNs with different payloads and signs), Bools, strings and Nil.
  // Buckets and handles, cell counts, frame binds, element() and
  // to_multiset() must all agree with the model, on a store indexing every
  // field and on one indexing none (whose counts sweep the columns).
  const std::vector<Value> domain = {
      Value(0),          Value(1),           Value(-1),
      Value(0.0),        Value(-0.0),        Value(1.0),
      Value(std::nan("")), Value(std::nan("7")), Value(-std::nan("")),
      Value(true),       Value(false),       Value("a"),
      Value("b"),        Value("zz"),        Value()};
  Store indexed(FieldSet{0, 1, 2});
  Store plain;
  // (indexed id, plain id, element) in insertion order.
  std::vector<std::tuple<Store::Id, Store::Id, Element>> live;
  Rng rng(35);
  for (int step = 0; step < 1000; ++step) {
    const std::uint64_t roll = rng.bounded(20);
    if (roll == 0) {
      indexed.compact();
      plain.compact();
    } else if (live.empty() || roll < 11) {
      std::vector<Value> fields(1 + rng.bounded(3));
      for (Value& v : fields) v = domain[rng.bounded(domain.size())];
      Element e(std::move(fields));
      const Store::Id a = indexed.insert(e);
      const Store::Id b = plain.insert(e);
      live.emplace_back(a, b, std::move(e));
    } else {
      const std::size_t at = rng.bounded(live.size());
      indexed.remove(std::get<0>(live[at]));
      plain.remove(std::get<1>(live[at]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    const std::string where = "step " + std::to_string(step);

    for (const auto& [a, b, e] : live) {
      ASSERT_TRUE(identical(indexed.element(a), e)) << where;
      ASSERT_TRUE(identical(plain.element(b), e)) << where;
    }
    std::vector<std::pair<Store::Id, const Element*>> by_slot;
    for (const auto& [a, b, e] : live) by_slot.emplace_back(a, &e);
    std::sort(by_slot.begin(), by_slot.end());
    const Multiset snapshot = indexed.to_multiset();
    ASSERT_EQ(snapshot.size(), by_slot.size()) << where;
    auto listed = snapshot.begin();
    for (const auto& [id, e] : by_slot) {
      ASSERT_TRUE(identical(*listed++, *e)) << where;
    }

    for (std::size_t f = 0; f < 3; ++f) {
      for (const Value& d : domain) {
        Store::Bucket want;
        std::size_t equal = 0;
        for (const auto& [a, b, e] : live) {
          if (e.arity() <= f) continue;
          if (same_key(e.field(f), d)) want.push_back(a);
          if (e.field(f) == d) ++equal;
        }
        const std::string key = where + " field " + std::to_string(f) +
                                " value " + d.to_string();
        const Store::Bucket* got = indexed.field_bucket(f, d);
        if (want.empty()) {
          EXPECT_EQ(got, nullptr) << key;
        } else {
          ASSERT_NE(got, nullptr) << key;
          EXPECT_EQ(*got, want) << key;
          EXPECT_EQ(indexed.field_bucket(indexed.field_handle(f, d)), got)
              << key;
        }
        EXPECT_EQ(indexed.count_field(f, d), equal) << key;
        EXPECT_EQ(plain.count_field(f, d), equal) << key;
      }
    }

    // Frame binds on a few random (outer, inner) pairs: the outer element
    // binds every field, the inner one meets each field op kind.
    for (int probe = 0; probe < 4 && !live.empty(); ++probe) {
      const auto& [oa, ob, outer] = live[rng.bounded(live.size())];
      const auto& [ia, ib, inner] = live[rng.bounded(live.size())];
      const std::string pair = where + " " + outer.to_string() + " then " +
                               inner.to_string();
      std::vector<FieldOp> binds(outer.arity());  // Bind ops
      for (std::size_t f = 0; f < outer.arity(); ++f) {
        binds[f].index = static_cast<std::uint32_t>(f);
      }
      // Slot 3 holds an outside value; slots 0..2 the outer element's.
      Frame frame(4);
      const Value& outside = domain[rng.bounded(domain.size())];
      frame.bind_ref(3, outside);
      ASSERT_TRUE(indexed.bind(binds, oa, frame, {})) << pair;
      for (std::size_t f = 0; f < outer.arity(); ++f) {
        EXPECT_TRUE(identical(*frame.slot(f), outer.field(f))) << pair;
      }
      const Value& lit = domain[rng.bounded(domain.size())];
      const Store::Cell lit_cell =
          indexed.cell_of(lit).value_or(Store::Cell{Store::kTextTag, 0});
      const std::uint32_t eq_slot = static_cast<std::uint32_t>(
          rng.bounded(2) == 0 ? 3 : rng.bounded(outer.arity()));
      for (std::size_t f = 0; f < inner.arity(); ++f) {
        for (const FieldOp::Kind kind : {FieldOp::Kind::Lit,
                                         FieldOp::Kind::Eq}) {
          std::vector<FieldOp> ops(inner.arity());  // Bind ops into slot 4
          for (FieldOp& op : ops) op.index = 4;
          ops[f].kind = kind;
          ops[f].index = kind == FieldOp::Kind::Lit ? 0 : eq_slot;
          Frame inner_frame(5);
          for (std::uint32_t s = 0; s < 4; ++s) {
            inner_frame.bind_ref(
                s, frame.slot(s) != nullptr ? *frame.slot(s) : outside);
          }
          const Value& comparand =
              kind == FieldOp::Kind::Lit ? lit : *inner_frame.slot(eq_slot);
          EXPECT_EQ(indexed.bind(ops, ia, inner_frame,
                                 std::span<const Store::Cell>(&lit_cell, 1)),
                    inner.field(f) == comparand)
              << pair << " field " << f << " against " << comparand;
        }
      }
    }
  }
}

TEST(Store, CompactFreesTheSymbolsNoLiveRowHolds) {
  // A long run through fresh labels, each consumed again, keeps its symbol
  // table O(live): compaction frees the labels no live row holds, and
  // their ids are reused.
  Store s(FieldSet{1});
  const auto keep = s.insert(Element::labeled(Value(-1), "keep"));
  for (std::int64_t i = 0; i < 100000; ++i) {
    const std::string label = std::string("L").append(std::to_string(i));
    const auto a = s.insert(Element::labeled(Value(i), label));
    const auto b = s.insert(Element::labeled(Value(i + 1), label));
    s.remove(a);
    s.remove(b);
  }
  // Every symbol not freed yet is held by a live row or a dead one.
  EXPECT_LE(s.symbol_slots(), s.size() + Store::kGarbageCompactThreshold);
  s.compact();
  EXPECT_EQ(s.symbol_count(), 1u);
  EXPECT_EQ(s.count_field(1, Value("keep")), 1u);
  EXPECT_EQ(s.field_bucket(1, Value("L99999")), nullptr);
  EXPECT_FALSE(s.cell_of(Value("L99999")).has_value());
  EXPECT_TRUE(s.alive(keep));
  EXPECT_EQ(s.element(keep), Element::labeled(Value(-1), "keep"));
}

TEST(Store, FreedSymbolIdIsNeverReadAsItsOldString) {
  Store s(FieldSet{1});
  s.remove(s.insert(Element::labeled(Value(1), "old")));
  s.compact();
  EXPECT_EQ(s.symbol_count(), 0u);
  ASSERT_EQ(s.symbol_slots(), 1u);
  // The new label takes the freed id; nothing finds the old one through it.
  const auto id = s.insert(Element::labeled(Value(2), "new"));
  EXPECT_EQ(s.symbol_slots(), 1u);
  EXPECT_EQ(s.element(id), Element::labeled(Value(2), "new"));
  EXPECT_EQ(s.field_bucket(1, Value("old")), nullptr);
  EXPECT_EQ(s.count_field(1, Value("old")), 0u);
  EXPECT_EQ(*s.field_bucket(1, Value("new")), Store::Bucket{id});
  EXPECT_EQ(s.to_multiset(), Multiset{Element::labeled(Value(2), "new")});
}

TEST(Store, CopiesKeepTheirOwnSymbolTables) {
  // A copy reads its strings from its own table:
  // freeing and reusing symbols in the original leaves the copy intact.
  Store s(FieldSet{1});
  const auto a = s.insert(Element::labeled(Value(1), "a"));
  const Store copy = s;
  s.remove(a);
  s.compact();
  s.insert(Element::labeled(Value(2), "b"));
  EXPECT_EQ(copy.element(a), Element::labeled(Value(1), "a"));
  EXPECT_EQ(*copy.field_bucket(1, Value("a")), Store::Bucket{a});
  EXPECT_EQ(copy.field_bucket(1, Value("b")), nullptr);
}

TEST(Store, ToMultisetRoundTrip) {
  const Multiset m{Element::tagged(Value(1), "A", 0),
                   Element::tagged(Value(1), "A", 0),
                   Element::tagged(Value(2), "B", 1)};
  const Store s(m, FieldSet{});
  EXPECT_EQ(s.to_multiset(), m);
}

TEST(Store, NthLiveIsTheKthElementToMultisetLists) {
  // Spans several 64-slot liveness words, with holes and reused slots.
  Store s;
  Rng rng(5);
  std::vector<Store::Id> live;
  for (int i = 0; i < 300; ++i) live.push_back(s.insert(Element{Value(i)}));
  for (int round = 0; round < 200; ++round) {
    if (rng.coin(0.5) && !live.empty()) {
      const std::size_t k = rng.bounded(live.size());
      s.remove(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      live.push_back(s.insert(Element{Value(1000 + round)}));
    }
  }
  const Multiset listed = s.to_multiset();
  ASSERT_EQ(listed.size(), s.size());
  for (std::size_t k = 0; k < s.size(); ++k) {
    const Store::Id id = s.nth_live(k);
    ASSERT_TRUE(s.alive(id)) << "k " << k;
    EXPECT_EQ(s.element(id), listed.elements()[k]) << "k " << k;
  }
}

TEST(Store, AppendKeepsTheOtherStoresInsertionOrder) {
  // Slot reuse puts the other store's slot order out of insertion order;
  // append must follow the stamps, so the appended buckets list the
  // elements as the other store inserted them.
  Store other(FieldSet{1});
  const Store::Id a = other.insert(Element::labeled(Value(1), "k"));
  other.insert(Element::labeled(Value(2), "k"));
  other.insert(Element{Value(3)});
  other.remove(a);
  other.insert(Element::labeled(Value(4), "k"));  // reuses slot a

  Store into(FieldSet{1});
  into.insert(Element::labeled(Value(0), "k"));
  into.append(other);

  EXPECT_EQ(into.size(), 4u);
  std::vector<std::int64_t> order;
  for (const Store::Id id : *into.field_bucket(1, Value("k"))) {
    order.push_back(into.element(id).value().as_int());
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 2, 4}));
  Multiset want = other.to_multiset();
  want.add(Element::labeled(Value(0), "k"));
  EXPECT_EQ(into.to_multiset(), want);
}

Reaction adder() {
  // replace [a,'L'], [b,'R'] by [a+b,'S']
  return Reaction("Add",
                  {Pattern::labeled("a", "L"), Pattern::labeled("b", "R")},
                  {Branch::unconditional({tuple({"a + b", "'S'"})})});
}

TEST(FindMatch, FindsEnabledPair) {
  Store s(FieldSet::of(adder()));
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(3), "R"));
  const Reaction r = adder();
  const auto m = find_fresh(s, r);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->ids.size(), 2u);
  ASSERT_EQ(m->produced(s).size(), 1u);
  EXPECT_EQ(m->produced(s)[0], Element::labeled(Value(5), "S"));
}

TEST(FindMatch, NoMatchWhenLabelMissing) {
  Store s(FieldSet::of(adder()));
  s.insert(Element::labeled(Value(2), "L"));
  EXPECT_FALSE(find_fresh(s, adder()).has_value());
}

TEST(FindMatch, ElementsMustBeDistinctInstances) {
  // min-style: replace x, y — one element cannot play both roles.
  Store s;
  s.insert(Element{Value(5)});
  const Reaction r("R", {Pattern::var("x"), Pattern::var("y")},
                   {Branch::unconditional({tuple({"x"})})});
  EXPECT_FALSE(find_fresh(s, r).has_value());
  s.insert(Element{Value(5)});  // a second equal instance IS allowed
  EXPECT_TRUE(find_fresh(s, r).has_value());
}

TEST(FindMatch, ConditionGatesMatch) {
  Store s;
  s.insert(Element{Value(9)});
  s.insert(Element{Value(2)});
  const Reaction r("Min", {Pattern::var("x"), Pattern::var("y")},
                   {Branch::when(expr::parse_expression("x < y"),
                                 {tuple({"x"})})});
  // Both orderings exist as candidate tuples; only (2,9) is enabled.
  const auto m = find_fresh(s, r);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->produced(s)[0], Element{Value(2)});
}

TEST(FindMatch, CommitAppliesRewrite) {
  Store s(FieldSet::of(adder()));
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(3), "R"));
  const Reaction r = adder();
  const auto m = find_fresh(s, r);
  ASSERT_TRUE(m.has_value());
  MatchPipeline::commit(s, *m);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.to_multiset(), (Multiset{Element::labeled(Value(5), "S")}));
  EXPECT_FALSE(find_fresh(s, r).has_value());
}

TEST(FindMatch, RandomizedIsFairAcrossPairs) {
  // Two independent L/R pairs; randomized probing should pick different
  // first matches across seeds.
  Store s(FieldSet::of(adder()));
  s.insert(Element::labeled(Value(1), "L"));
  s.insert(Element::labeled(Value(2), "L"));
  s.insert(Element::labeled(Value(10), "R"));
  const Reaction r = adder();
  std::set<Value> first_values;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng(seed);
    const auto m = find_fresh(s, r, &rng);
    ASSERT_TRUE(m.has_value());
    first_values.insert(m->produced(s)[0].value());
  }
  EXPECT_EQ(first_values.size(), 2u);  // both 11 and 12 observed
}

TEST(FindMatch, WideReactionsSpillPastTheInlineBuffers) {
  // Five patterns, ten binders and ten output fields: more ids, frame
  // slots and output values than a match or frame keeps inline.
  Store s;
  for (int i = 0; i < 5; ++i) s.insert(Element{Value(i), Value(10 * i)});
  const Reaction r = dsl::parse_reaction(
      "W = replace [a, b], [c, d], [e, f], [g, h], [i, j] "
      "by [a, b, c, d, e, f, g, h, i, j]");
  auto m = find_fresh(s, r);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->ids.size(), 5u);
  std::vector<Value> want;
  for (const Store::Id id : m->ids) {
    const Element e = s.element(id);
    want.insert(want.end(), e.fields().begin(), e.fields().end());
  }
  ASSERT_EQ(m->produced(s).size(), 1u);
  EXPECT_EQ(m->produced(s)[0], Element(want));
  MatchPipeline::commit(s, *m);
  EXPECT_EQ(s.to_multiset(), Multiset{Element(want)});
}

TEST(EnumerateMatches, CountsOrderedTuples) {
  Store s;
  for (int i = 0; i < 4; ++i) s.insert(Element{Value(i)});
  const Reaction any2("R", {Pattern::var("x"), Pattern::var("y")},
                      {Branch::unconditional({tuple({"x"})})});
  std::size_t count = enumerate_fresh(
      s, any2, 1000, [](const Match&) { return true; });
  EXPECT_EQ(count, 12u);  // 4 * 3 ordered pairs
}

TEST(EnumerateMatches, HonorsLimitAndEarlyStop) {
  Store s;
  for (int i = 0; i < 10; ++i) s.insert(Element{Value(i)});
  const Reaction any2("R", {Pattern::var("x"), Pattern::var("y")},
                      {Branch::unconditional({tuple({"x"})})});
  EXPECT_EQ(enumerate_fresh(
                s, any2, 7, [](const Match&) { return true; }),
            7u);
  std::size_t seen = 0;
  enumerate_fresh(
      s, any2, 1000,
      [&](const Match&) {
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

  // The buckets already hold exactly the four survivors; only the dead
  // ROWS linger until compaction.
  const Store& cs = s;
  const Store::Candidates b = cs.arity_bucket(1);
  ASSERT_TRUE(b);
  EXPECT_EQ(list(b), (Store::Bucket{ids[4], ids[5], ids[6], ids[7]}));

  const auto compactions_before = s.column_compactions();
  s.compact();
  EXPECT_EQ(s.dead_rows(), 0u);
  EXPECT_GT(s.column_compactions(), compactions_before);
  const Store::Candidates after = cs.arity_bucket(1);
  ASSERT_TRUE(after);
  EXPECT_EQ(list(after), (Store::Bucket{ids[4], ids[5], ids[6], ids[7]}));
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
  EXPECT_EQ(s.dead_rows(), Store::kGarbageCompactThreshold - 1);
  s.remove(ids.back());
  EXPECT_EQ(s.dead_rows(), Store::kGarbageCompactThreshold);

  // The next insert collects, so no path has to ask for it: a worklist
  // drain stays O(live) too.
  s.insert(Element{Value(-1)});
  EXPECT_EQ(s.dead_rows(), 0u);
  EXPECT_GT(s.column_compactions(), 0u);
}

TEST(Store, OutputCellsAgreeWithInterning) {
  // Fires committed as cells through MatchSites, against a store fed the
  // same removes and the same outputs as plain Values through
  // insert(span<const Value>). The outputs cover a copied bound label
  // (Rcopy, Rback), a computed string (Rtext), a pinned literal (Rpin) and
  // a mixed-kind tuple (Rmix); fresh labels arrive all along, so symbols
  // are released, freed and reused across several compactions. After every
  // step the rows, every label's holder count and count_field agree.
  const Program p = dsl::parse_program(R"(
    Rcopy = replace [x, k], [y, k] by [x + y, k] if x + y < 1000
    Rtext = replace [x, k] by [x + 1, k + 'x'] if x % 5 == 0
    Rpin = replace [x, k] by [x + 2, 'pin'] if x % 7 == 3
    Rmix = replace [x, k], [y, 'pin'] by [k, 2.5, true, x, 'lit'] if y % 2 == 0
    Rback = replace [k, r, b, x, l] by [x + 1, k]
  )");
  const std::vector<Reaction>& stage = p.stages()[0];
  Store cells(FieldSet::of(p));
  Store plain(FieldSet::of(p));
  // The plain store holds the same pins, so holder counts compare 1:1.
  std::set<std::string> labels;
  std::size_t literal_strings = 0;
  for (const Reaction& r : stage) {
    for (const Value& v : r.compiled().literals()) {
      if (!v.is_str()) continue;
      ++literal_strings;
      labels.insert(v.as_str());
      (void)cells.pin(v);
      (void)plain.pin(v);
    }
  }
  std::vector<runtime::MatchSite> sites(stage.size());
  Rng rng(29);
  Rng picks(31);
  std::int64_t fresh = 0;
  std::size_t fires = 0;
  for (int step = 0; step < 12000; ++step) {
    if (step % 6 == 0) {
      const std::string label =
          std::string("L").append(std::to_string(fresh % 50));
      labels.insert(label);
      const std::array<Value, 2> e{Value(fresh++ % 40), Value(label)};
      ASSERT_EQ(cells.insert(e), plain.insert(e));
    }
    const std::size_t idx = picks.bounded(stage.size());
    if (!MatchPipeline::find(cells, stage[idx], &rng, sites[idx])) continue;
    const Match& m = sites[idx].match();
    const std::vector<Element> produced = m.produced(cells);
    for (const Element& e : produced) {
      for (const Value& f : e.fields()) {
        if (f.is_str()) labels.insert(f.as_str());
      }
    }
    MatchPipeline::commit(cells, m);
    for (const Store::Id id : m.ids) plain.remove(id);
    for (const Element& e : produced) plain.insert(e);
    ++fires;

    const std::string where = "step " + std::to_string(step);
    ASSERT_EQ(cells.slots(), plain.slots()) << where;
    for (Store::Id id = 0; id < cells.slots(); ++id) {
      ASSERT_EQ(cells.alive(id), plain.alive(id)) << where << " id " << id;
      if (cells.alive(id)) {
        ASSERT_EQ(cells.element(id), plain.element(id))
            << where << " id " << id;
      }
    }
    for (const std::string& label : labels) {
      ASSERT_EQ(cells.symbol_holders(label), plain.symbol_holders(label))
          << where << " '" << label << "'";
      ASSERT_EQ(cells.count_field(1, Value(label)),
                plain.count_field(1, Value(label)))
          << where << " '" << label << "'";
    }
  }
  EXPECT_GT(fires, 1000u);
  EXPECT_GE(cells.column_compactions(), 3u);
  // Pins are bounded by the program's literals, however many labels came.
  EXPECT_EQ(cells.pinned_symbols(), 2u);  // 'pin' and 'lit'
  EXPECT_LE(cells.pinned_symbols(), literal_strings);
}

TEST(Store, KeyedFireHashesNoStringAndLooksUpOnlyItsOutputKey) {
  // perfbench `parallel`'s program over 'kN' labels, fired as the engines
  // fire it (a MatchSite, find then commit). A label stays a cell from find
  // to commit: no fire hashes a string into the symbol index, remove()
  // unindexes through the bucket slots its insert recorded, and insert()
  // looks up the (field, value) index once, for the output's label.
  const Program p =
      dsl::parse_program("Rkey = replace [x, k], [y, k] by [x + y, k]");
  const Reaction& r = p.stages()[0][0];
  Multiset m;
  for (std::int64_t i = 0; i < 4096; ++i) {
    m.add(Element{Value(i % 1000),
                  Value(std::string("k").append(std::to_string(i % 64)))});
  }
  Store store(m, FieldSet::of(p));
  runtime::MatchSite site;
  Rng rng(5);
  std::size_t fires = 0;
  for (;;) {
    const StoreWork before_find = store_work();
    if (!MatchPipeline::find(store, r, &rng, site)) break;
    const StoreWork before_commit = store_work();
    MatchPipeline::commit(store, site.match());
    const StoreWork after = store_work();
    ASSERT_EQ(after.symbol_hashes - before_find.symbol_hashes, 0u)
        << "fire " << fires;
    // Two removes and one insert; field 1 is the only indexed field.
    ASSERT_LE(after.index_lookups - before_commit.index_lookups, 1u)
        << "fire " << fires;
    ++fires;
  }
  EXPECT_EQ(fires, 4096u - 64u);

  // A bare remove looks nothing up and hashes nothing.
  const StoreWork before = store_work();
  store.remove(store.nth_live(0));
  const StoreWork after = store_work();
  EXPECT_EQ(after.index_lookups - before.index_lookups, 0u);
  EXPECT_EQ(after.symbol_hashes - before.symbol_hashes, 0u);
}

TEST(Store, SpillSidecarRoundTripsNonIntFields) {
  // Every non-Int kind is an inline column payload too (a Real's bits, a
  // Bool's 0/1, a string's symbol id, Nil's 0); materialization must
  // reproduce the exact Value (kind and payload), before and after the
  // columns are rewritten and the dead row's symbol is freed.
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

TEST(Store, FrameBindAgreesWithElementMatch) {
  // The frame matcher (a reaction's field ops run on the columns) against
  // Pattern::match on the materialized elements, over every ordered tuple
  // of stored elements: the same verdict, and on a match the same value in
  // every slot as the Env holds under the slot's name. The elements mix
  // Int, Real (NaN included), string, Bool and Nil fields, so Lit, Bind
  // and Eq each meet every kind of column payload.
  Store s;
  const std::vector<Element> elements = {
      Element::tagged(Value(41), "A", 3),
      Element::tagged(Value(41), "B", 3),
      Element::tagged(Value(7), "B", 4),
      Element::labeled(Value(41), "A"),
      Element{Value(5), Value(5)},
      Element{Value(5), Value(6)},
      Element{Value("s"), Value("s")},
      Element{Value(std::nan("")), Value(std::nan(""))},
      Element{Value(), Value()},
      Element{Value(2.5), Value(true)},
      Element{Value(3)},
      Element{Value(6)},
  };
  std::vector<Store::Id> ids;
  for (const Element& e : elements) ids.push_back(s.insert(e));

  const char* const reactions[] = {
      "R = replace [x, 'A', v] by x",
      "R = replace [x, 'B', v] by x",
      "R = replace [x, 'A'] by x",
      "R = replace [x, x] by x",
      "R = replace [x, y] by x",
      "R = replace x by x",
      "R = replace [x, 'A', v], [y, 'B', v] by x",
      "R = replace [x, y], [y, x] by x",
      "R = replace [x, k], [k, y], [y] by x",
  };
  for (const char* text : reactions) {
    const Reaction r = dsl::parse_reaction(text);
    const CompiledReaction& compiled = r.compiled();
    const std::size_t k = r.arity();
    std::vector<std::size_t> at(k, 0);
    std::size_t matched = 0;
    while (true) {
      expr::Env env;
      bool want = true;
      Frame frame(compiled.slots().size());
      bool got = true;
      for (std::size_t d = 0; d < k; ++d) {
        want = want && r.patterns()[d].match(elements[at[d]], env);
        got = got && s.bind(compiled.field_ops()[d], ids[at[d]], frame,
                            literal_cells(s, compiled));
      }
      std::string where = std::string(text) + " on";
      for (const std::size_t a : at) {
        where.append(" ").append(elements[a].to_string());
      }
      EXPECT_EQ(got, want) << where;
      if (got && want) {
        ++matched;
        for (std::size_t slot = 0; slot < compiled.slots().size(); ++slot) {
          const Value* bound = env.find(compiled.slots()[slot]);
          ASSERT_NE(bound, nullptr) << where;
          ASSERT_NE(frame.slot(slot), nullptr) << where;
          // Value == is false for NaN; compare the rendering instead.
          EXPECT_EQ(frame.slot(slot)->to_string(), bound->to_string())
              << where << " slot " << compiled.slots()[slot];
          EXPECT_EQ(frame.slot(slot)->kind(), bound->kind()) << where;
        }
      }
      std::size_t d = 0;
      while (d < k && ++at[d] == elements.size()) at[d++] = 0;
      if (d == k) break;
    }
    EXPECT_GT(matched, 0u) << text;
  }
}

TEST(EnumerateMatches, OnlyEnabledMatchesVisited) {
  Store s;
  s.insert(Element{Value(5)});
  s.insert(Element{Value(5)});
  const Reaction strict("R", {Pattern::var("x"), Pattern::var("y")},
                        {Branch::when(expr::parse_expression("x < y"), {})});
  EXPECT_EQ(enumerate_fresh(
                s, strict, 100, [](const Match&) { return true; }),
            0u);
}

TEST(Store, StampsAreFreshPerInsertAndOrderEveryBucket) {
  Store s;
  const auto a = s.insert(Element{Value(1)});
  const auto b = s.insert(Element{Value(2)});
  EXPECT_LT(s.stamp(a), s.stamp(b));
  const std::uint64_t old_stamp = s.stamp(a);
  s.remove(a);
  const auto c = s.insert(Element{Value(3)});
  ASSERT_EQ(c, a);  // the slot is reused...
  EXPECT_GT(s.stamp(c), old_stamp);  // ...under a new stamp
  const Store::Candidates bucket = s.arity_bucket(1);
  ASSERT_EQ(list(bucket), (Store::Bucket{b, c}));
  EXPECT_EQ(s.first_stamped(bucket, 0), 0u);
  EXPECT_EQ(s.first_stamped(bucket, s.stamp(b) + 1), 1u);
  EXPECT_EQ(s.first_stamped(bucket, s.stamp(c)), 1u);
  EXPECT_EQ(s.first_stamped(bucket, s.version()), 2u);
}

/// replace x, y by x where x > y and x + y == 10: only the larger element
/// of a pair can anchor its match.
Reaction sum_to_ten() {
  return Reaction("Ten", {Pattern::var("x"), Pattern::var("y")},
                  {Branch::when(expr::parse_expression("x > y and x + y == 10"),
                                {tuple({"x"})})});
}

TEST(AnchorMemo, ReusedAnchorSlotStartsFresh) {
  Store s;
  const auto anchor = s.insert(Element{Value(3)});
  const auto candidate = s.insert(Element{Value(4)});
  const Reaction r = sum_to_ten();
  MatchSite site;
  EXPECT_FALSE(MatchPipeline::find(s, r, nullptr, site));
  EXPECT_EQ(site.memo().watermark(s, anchor), s.version());
  EXPECT_EQ(site.memo().watermark(s, candidate), s.version());

  // 6 takes the anchor's slot and matches the old candidate 4; only 6 can
  // anchor (6, 4), so a slot-keyed watermark would hide the match.
  s.remove(anchor);
  ASSERT_EQ(s.insert(Element{Value(6)}), anchor);
  EXPECT_EQ(site.memo().watermark(s, anchor), 0u);
  ASSERT_TRUE(MatchPipeline::find(s, r, nullptr, site));
  EXPECT_EQ(ids(site.match()), (std::vector<Store::Id>{anchor, candidate}));
}

TEST(AnchorMemo, ReusedCandidateSlotIsRescanned) {
  Store s;
  const auto anchor = s.insert(Element{Value(6)});
  const auto candidate = s.insert(Element{Value(3)});
  const Reaction r = sum_to_ten();
  MatchSite site;
  EXPECT_FALSE(MatchPipeline::find(s, r, nullptr, site));
  ASSERT_EQ(site.memo().watermark(s, anchor), s.version());

  // 4 takes the failed candidate's slot under a newer stamp, so the
  // anchor's watermark does not cover it.
  s.remove(candidate);
  ASSERT_EQ(s.insert(Element{Value(4)}), candidate);
  ASSERT_TRUE(MatchPipeline::find(s, r, nullptr, site));
  EXPECT_EQ(ids(site.match()), (std::vector<Store::Id>{anchor, candidate}));
  EXPECT_EQ(site.memo().skips(), 0u);
}

TEST(AnchorMemo, SuffixScanKeepsTheCyclicOrderAndTheRngStream) {
  // One anchor [10,'a'] fails against 1..5; then 11..30 arrive, all of
  // which fire. A seeded find must pick the candidate a full cyclic scan
  // from the drawn start picks, not the first one past the watermark.
  Store s(FieldSet{1});
  s.insert(Element::labeled(Value(10), "a"));
  for (std::int64_t v = 1; v <= 5; ++v) s.insert(Element{Value(v)});
  const Reaction r("Gt", {Pattern::labeled("x", "a"), Pattern::var("y")},
                   {Branch::when(expr::parse_expression("y > x"),
                                 {tuple({"y"})})});
  MatchSite site;
  ASSERT_FALSE(MatchPipeline::find(s, r, nullptr, site));
  for (std::int64_t v = 11; v <= 30; ++v) s.insert(Element{Value(v)});
  std::set<Value> picked;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng with_memo(seed);
    Rng without(seed);
    ASSERT_TRUE(MatchPipeline::find(s, r, &with_memo, site));
    const auto want = find_fresh(s, r, &without);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(ids(site.match()), ids(*want)) << "seed " << seed;
    EXPECT_EQ(with_memo(), without()) << "seed " << seed;
    picked.insert(site.match().produced(s)[0].value());
  }
  EXPECT_GT(picked.size(), 1u);
}

TEST(Store, IndexesOnlyConstrainedFields) {
  // The derived set holds each pattern's key-constraint field and its join
  // fields, over every stage; the store builds (field, value) buckets for
  // exactly those fields, so field_bucket_count() counts the distinct
  // values of the constrained fields alone.
  const Program program = dsl::parse_program(
      "A = replace [x, 'a', t], [y, 'a', t] by [x + y, 'a', t]\n"
      ";\n"
      "B = replace [k, v, w, u], [k, z, w, q] by [k, v + z, w, u]");
  const FieldSet fields = FieldSet::of(program);
  EXPECT_EQ(fields.fields(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(FieldSet::of(dsl::parse_reaction("R = replace x, y by x + y"))
                  .fields()
                  .empty());
  EXPECT_EQ(FieldSet::of(dsl::parse_reaction(
                             "R = replace [x, 'a'], [y, 'b'] by [x + y, 'c']"))
                .fields(),
            (std::vector<std::size_t>{1}));

  Store s(fields);
  std::set<std::pair<std::size_t, Value>> distinct;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::vector<Value> f;
    const std::size_t arity = 1 + rng.bounded(4);
    for (std::size_t j = 0; j < arity; ++j) {
      f.emplace_back(static_cast<std::int64_t>(rng.bounded(6)));
    }
    for (std::size_t j = 0; j < std::min<std::size_t>(arity, 3); ++j) {
      distinct.emplace(j, f[j]);
    }
    s.insert(Element(std::move(f)));
  }
  EXPECT_EQ(s.field_bucket_count(), distinct.size());

  // A program that constrains no field gets no field bucket at all.
  Store plain(FieldSet::of(dsl::parse_program("R = replace x, y by x + y")));
  for (int i = 0; i < 50; ++i) plain.insert(Element{Value(i), Value(i)});
  EXPECT_EQ(plain.field_bucket_count(), 0u);
  EXPECT_EQ(plain.arity_bucket(1).size(), 0u);
}

TEST(Store, UnindexedFieldQueryThrows) {
  // The search reads a null bucket as "no live element carries the value",
  // a fixpoint proof; an unindexed field must never answer null.
  Store s(FieldSet{1});
  s.insert(Element{Value(1), Value(2), Value(3)});
  EXPECT_NE(s.field_bucket(1, Value(2)), nullptr);
  EXPECT_EQ(s.field_bucket(1, Value(9)), nullptr);
  EXPECT_THROW((void)s.field_bucket(0, Value(1)), EngineError);
  EXPECT_THROW((void)s.field_bucket(2, Value(9)), EngineError);
  EXPECT_THROW((void)s.field_handle(0, Value(1)), EngineError);
  // So does a search whose reaction needs an index the store lacks.
  const Reaction keyed = dsl::parse_reaction(
      "R = replace [x, k], [y, k] by [x + y, k]");
  Store unkeyed;
  unkeyed.insert(Element{Value(1), Value(2)});
  unkeyed.insert(Element{Value(3), Value(2)});
  EXPECT_THROW((void)find_fresh(unkeyed, keyed), EngineError);
  Store right(FieldSet::of(keyed));
  right.insert(Element{Value(1), Value(2)});
  right.insert(Element{Value(3), Value(2)});
  EXPECT_TRUE(find_fresh(right, keyed).has_value());
}

}  // namespace
}  // namespace gammaflow::gamma
