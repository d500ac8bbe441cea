// Tests for the common substrate: RNG determinism, stats, MPSC queue, JSON
// codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <thread>

#include "gammaflow/common/json.hpp"
#include "gammaflow/common/mpsc_queue.hpp"
#include "gammaflow/common/rank_bitmap.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/common/stats.hpp"

namespace gammaflow {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  Rng a2(5);
  Rng child2 = a2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(child(), child2());
  // Parent and child streams should diverge.
  Rng parent(5);
  (void)parent();  // split consumed one draw
  int same = 0;
  Rng c3 = Rng(5).split();
  for (int i = 0; i < 32; ++i) {
    if (parent() == c3()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UsableWithStdShuffle) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Rng rng(9);
  std::shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(RankBitmap, RankAndSelectMatchAModel) {
  // Random appends and clears, with a rebuild now and then, checked after
  // every step against a plain vector<bool>: count, every bit, every rank
  // and every select.
  RankBitmap bits;
  std::vector<bool> model;
  Rng rng(99);
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t op = rng.bounded(16);
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i]) set.push_back(i);
    }
    if (op < 9 || set.empty()) {
      bits.push_set();
      model.push_back(true);
    } else if (op < 15) {
      const std::size_t i = set[rng.bounded(set.size())];
      bits.reset(i);
      model[i] = false;
    } else {
      bits.assign_set(set.size());
      model.assign(set.size(), true);
    }
    set.clear();
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i]) set.push_back(i);
    }
    ASSERT_EQ(bits.size(), model.size()) << step;
    ASSERT_EQ(bits.count(), set.size()) << step;
    std::size_t below = 0;
    for (std::size_t i = 0; i <= model.size(); ++i) {
      ASSERT_EQ(bits.rank(i), below) << "step " << step << " rank " << i;
      if (i == model.size()) break;
      ASSERT_EQ(bits.test(i), model[i]) << "step " << step << " bit " << i;
      if (model[i]) ++below;
    }
    for (std::size_t k = 0; k < set.size(); ++k) {
      ASSERT_EQ(bits.select(k), set[k]) << "step " << step << " select " << k;
    }
  }
}

TEST(StatsRegistry, RecordAndQuery) {
  StatsRegistry reg;
  reg.count("fires");
  reg.count("fires", 4);
  EXPECT_EQ(reg.counter("fires"), 5u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  reg.clear();
  EXPECT_EQ(reg.counter("fires"), 0u);
}

TEST(StatsRegistry, ConcurrentRecordAndCount) {
  StatsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kOps; ++i) {
        reg.count("ops");
        reg.hist("latency").observe(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads) * kOps;
  EXPECT_EQ(reg.counter("ops"), kTotal);
  EXPECT_EQ(reg.snapshot().histograms.at("latency").count, kTotal);
}

TEST(Counter, ConcurrentAdds) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.get(), 40000u);
}

TEST(MpscQueue, FifoOrderSingleProducer) {
  MpscQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  for (int i = 0; i < 10; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, ConcurrentProducersDeliverAll) {
  MpscQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::set<int> received;
  std::size_t count = 0;
  while (count < kProducers * kPerProducer) {
    if (auto v = q.try_pop()) {
      received.insert(*v);
      ++count;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& p : producers) p.join();
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

TEST(Json, NestingLimitIsExactlyKMaxJsonDepth) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse_json(nested(kMaxJsonDepth)).is_arr());
  // An enclosing object counts toward the depth too.
  EXPECT_THROW((void)parse_json("{\"k\":" + nested(kMaxJsonDepth) + "}"),
               WireError);
  try {
    (void)parse_json(nested(kMaxJsonDepth + 1));
    FAIL() << "parsed past the nesting limit";
  } catch (const WireError& e) {
    EXPECT_STREQ(e.what(), "WireError: nesting deeper than 256 at offset 256");
  }
}

TEST(Json, QuoteRoundTripsEveryByteAndEmitsNoControlBytes) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  const std::string quoted = json_quote(all);
  for (const char c : quoted) {
    ASSERT_GE(static_cast<unsigned char>(c), 0x20) << quoted;
  }
  EXPECT_EQ(parse_json(quoted).as_str(), all);
  EXPECT_EQ(json_quote("a\"b\\c\n\r\t\x01"),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\"");
}

TEST(Json, WriterPinsItsBytes) {
  // The bytes every JSON writer in the project prints: the serve replies,
  // inline journals and the DOM's to_string. Ints are exact, reals are
  // printf's "%.17g", keys come out in map order.
  const auto bytes = [](const Json& v) { return v.to_string(); };
  EXPECT_EQ(bytes(Json(std::numeric_limits<std::int64_t>::min())),
            "-9223372036854775808");
  EXPECT_EQ(bytes(Json(std::numeric_limits<std::int64_t>::max())),
            "9223372036854775807");
  EXPECT_EQ(bytes(Json(0)), "0");
  EXPECT_EQ(bytes(Json(-0.0)), "-0");
  EXPECT_EQ(bytes(Json(2.5)), "2.5");
  EXPECT_EQ(bytes(Json(0.1)), "0.10000000000000001");
  EXPECT_EQ(bytes(Json(1e-310)), "9.9999999999999694e-311");
  EXPECT_EQ(bytes(Json(1e300)), "1.0000000000000001e+300");
  EXPECT_EQ(bytes(Json(std::numeric_limits<double>::quiet_NaN())), "nan");
  EXPECT_EQ(bytes(Json(std::numeric_limits<double>::infinity())), "inf");
  EXPECT_EQ(bytes(Json(std::string("\x01\x1f\x7f\"\\/\n\r\t\b\f", 11))),
            R"("\u0001\u001f\"\\/\n\r\t\u0008\u000c")");
  EXPECT_EQ(bytes(Json(std::string("nul\0byte", 8))), R"("nul\u0000byte")");
  EXPECT_EQ(bytes(Json(JsonObj{{"z", Json(JsonArr{Json(1), Json(JsonArr{}),
                                                 Json(JsonObj{})})},
                               {"a", Json(nullptr)},
                               {"m", Json(JsonObj{{"k", Json(true)},
                                                  {"", Json(false)}})}})),
            R"({"a":null,"m":{"":false,"k":true},"z":[1,[],{}]})");
  EXPECT_EQ(bytes(Json(JsonArr{})), "[]");
  // A string with no escape is copied byte for byte, UTF-8 included.
  EXPECT_EQ(bytes(Json("caf\xc3\xa9 [1,'k']")), "\"caf\xc3\xa9 [1,'k']\"");
}

}  // namespace
}  // namespace gammaflow
