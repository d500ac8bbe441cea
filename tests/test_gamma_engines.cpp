// Engine semantics, parameterized over all three implementations: classic
// Gamma programs (min, max, gcd, sum, sieve, sort), termination, fairness,
// step limits, traces, sequential stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/run_recorder.hpp"

namespace gammaflow::gamma {
namespace {

enum class Kind { Sequential, Indexed, Parallel };

std::unique_ptr<Engine> make_engine(Kind k) {
  switch (k) {
    case Kind::Sequential: return std::make_unique<SequentialEngine>();
    case Kind::Indexed: return std::make_unique<IndexedEngine>();
    case Kind::Parallel: return std::make_unique<ParallelEngine>();
  }
  return nullptr;
}

class EngineSuite : public ::testing::TestWithParam<Kind> {
 protected:
  RunResult run(const Program& p, const Multiset& m, std::uint64_t seed = 1) {
    RunOptions opts;
    opts.seed = seed;
    opts.workers = 3;
    return make_engine(GetParam())->run(p, m, opts);
  }
};

Multiset ints(std::initializer_list<std::int64_t> values) {
  Multiset m;
  for (const auto v : values) m.add(Element{Value(v)});
  return m;
}

TEST_P(EngineSuite, TraceLimitCapsRecordingWithoutChangingTheRun) {
  // 31 elements => 30 firings; a limit of 5 keeps the first 5 events and
  // counts the rest as dropped, while execution itself is unaffected.
  const Program p = dsl::parse_program("Rsum = replace x, y by x + y");
  Multiset m;
  std::int64_t total = 0;
  for (std::int64_t i = 1; i <= 31; ++i) {
    m.add(Element{Value(i)});
    total += i;
  }
  RunOptions opts;
  opts.workers = 3;
  obs::RecorderLimits limits;
  limits.max_fires = 5;
  obs::RunRecorder recorder(limits);
  opts.record = &recorder;
  const auto r = make_engine(GetParam())->run(p, m, opts);
  const obs::Journal j = recorder.take();
  EXPECT_EQ(r.final_multiset, ints({total}));
  EXPECT_EQ(r.steps, 30u);
  EXPECT_EQ(j.fires.size(), 5u);
  EXPECT_EQ(j.fires_dropped, 25u);
}

TEST_P(EngineSuite, DefaultTraceLimitRecordsEverything) {
  const Program p = dsl::parse_program("Rsum = replace x, y by x + y");
  RunOptions opts;
  opts.workers = 3;
  obs::RunRecorder recorder;
  opts.record = &recorder;
  (void)make_engine(GetParam())->run(p, ints({1, 2, 3, 4, 5}), opts);
  const obs::Journal j = recorder.take();
  EXPECT_EQ(j.fires.size(), 4u);
  EXPECT_EQ(j.fires_dropped, 0u);
}

TEST_P(EngineSuite, MinElement) {
  // Eq. (2): replace x, y by x where x < y.
  const Program p = dsl::parse_program("Rmin = replace x, y by x where x < y");
  const auto r = run(p, ints({5, 3, 9, 1, 7, 4, 8}));
  EXPECT_EQ(r.final_multiset, ints({1}));
  EXPECT_EQ(r.steps, 6u);  // each firing removes exactly one element
}

TEST_P(EngineSuite, MaxElement) {
  const Program p = dsl::parse_program("Rmax = replace x, y by x where x > y");
  const auto r = run(p, ints({5, 3, 9, 1, 7}));
  EXPECT_EQ(r.final_multiset, ints({9}));
}

TEST_P(EngineSuite, SumReduction) {
  const Program p = dsl::parse_program("Rsum = replace x, y by x + y");
  const auto r = run(p, ints({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(r.final_multiset, ints({55}));
}

TEST_P(EngineSuite, GcdOfMultiset) {
  // Classic Gamma gcd: replace unequal pair by (difference, smaller).
  const Program p = dsl::parse_program(
      "Rgcd = replace x, y by [x - y], [y] where x > y");
  const auto r = run(p, ints({12, 18, 30}));
  // Fixed point: all elements equal gcd = 6 (three of them).
  EXPECT_EQ(r.final_multiset, ints({6, 6, 6}));
}

TEST_P(EngineSuite, SieveRemovesMultiples) {
  // Primes: replace x, y by y where y % x == 0 and x > 1 keeps... classic
  // form: delete y when x divides y.
  const Program p = dsl::parse_program(
      "Rsieve = replace x, y by [x] where (y % x == 0) and (x > 1)");
  Multiset m;
  for (std::int64_t i = 2; i <= 30; ++i) m.add(Element{Value(i)});
  const auto r = run(p, m);
  EXPECT_EQ(r.final_multiset, ints({2, 3, 5, 7, 11, 13, 17, 19, 23, 29}));
}

TEST_P(EngineSuite, EmptyMultisetIsImmediateFixpoint) {
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  const auto r = run(p, Multiset{});
  EXPECT_TRUE(r.final_multiset.empty());
  EXPECT_EQ(r.steps, 0u);
}

TEST_P(EngineSuite, DisabledReactionLeavesMultisetUntouched) {
  // Γ(...)(M) = M when no condition holds (Eq. (1) base case).
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  const auto r = run(p, ints({4, 4, 4}));
  EXPECT_EQ(r.final_multiset, ints({4, 4, 4}));
  EXPECT_EQ(r.steps, 0u);
}

TEST_P(EngineSuite, ParallelReactionsBothContribute) {
  // Two reactions over disjoint labels run in the same stage.
  const Program p = dsl::parse_program(R"(
    Ra = replace [x, 'a'], [y, 'a'] by [x + y, 'a']
    Rb = replace [x, 'b'], [y, 'b'] by [x * y, 'b']
  )");
  Multiset m;
  for (int i = 1; i <= 4; ++i) {
    m.add(Element::labeled(Value(i), "a"));
    m.add(Element::labeled(Value(i), "b"));
  }
  const auto r = run(p, m);
  const Multiset expected{Element::labeled(Value(10), "a"),
                          Element::labeled(Value(24), "b")};
  EXPECT_EQ(r.final_multiset, expected);
  EXPECT_EQ(r.fires_by_reaction.at("Ra"), 3u);
  EXPECT_EQ(r.fires_by_reaction.at("Rb"), 3u);
}

TEST_P(EngineSuite, SequentialStagesRunInOrder) {
  // Stage 1 squares singles into pairs; stage 2 sums pairs. With '|' instead
  // of ';' the result would differ — this pins the staged fixpoint order.
  const Program p = dsl::parse_program(R"(
    Rsq = replace [x, 'in'] by [x * x, 'mid'] ;
    Rsum = replace [x, 'mid'], [y, 'mid'] by [x + y, 'mid']
  )");
  Multiset m{Element::labeled(Value(1), "in"), Element::labeled(Value(2), "in"),
             Element::labeled(Value(3), "in")};
  const auto r = run(p, m);
  EXPECT_EQ(r.final_multiset, (Multiset{Element::labeled(Value(14), "mid")}));
}

TEST_P(EngineSuite, MaxStepsGuardThrows) {
  // Non-terminating: x -> x+1 forever.
  const Program p = dsl::parse_program("R = replace x by x + 1");
  RunOptions opts;
  opts.max_steps = 100;
  opts.workers = 3;
  EXPECT_THROW((void)make_engine(GetParam())->run(p, ints({0}), opts),
               EngineError);
}

TEST_P(EngineSuite, GrowingProgramReachesFixpointViaGuard) {
  // x -> x-1 twice while x > 0: grows then terminates.
  const Program p = dsl::parse_program(
      "R = replace x by [x - 1], [x - 1] where x > 0");
  const auto r = run(p, ints({3}));
  // 1 -> 2 -> 4 -> 8 leaves of value 0.
  EXPECT_EQ(r.final_multiset, ints({0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_P(EngineSuite, DeterministicResultAcrossSeeds) {
  // Sum is confluent: any firing order converges to the same multiset.
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const Multiset m = ints({3, 1, 4, 1, 5, 9, 2, 6});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(run(p, m, seed).final_multiset, ints({31}));
  }
}

TEST_P(EngineSuite, FireCountsSumToSteps) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const auto r = run(p, ints({1, 2, 3, 4, 5}));
  std::uint64_t total = 0;
  for (const auto& [name, n] : r.fires_by_reaction) total += n;
  EXPECT_EQ(total, r.steps);
  EXPECT_EQ(r.steps, 4u);
}

// ---------------------------------------------------------------------------
// Cooperative stopping: deadline, cancellation, and budget with
// LimitPolicy::Partial must all return a VALID partial multiset with
// RunResult::outcome saying why — never throw, never hang a worker.
// ---------------------------------------------------------------------------

TEST_P(EngineSuite, DeadlineExceededReturnsPartialState) {
  // Non-terminating chemistry: only the deadline can end this run.
  const Program p = dsl::parse_program("R = replace x by x + 1");
  RunOptions opts;
  opts.workers = 3;
  opts.max_steps = ~std::uint64_t{0};  // budget out of the picture
  opts.deadline = 0.02;
  const auto r = make_engine(GetParam())->run(p, ints({0}), opts);
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  // The partial state is real: one element, rewritten some number of times.
  ASSERT_EQ(r.final_multiset.size(), 1u);
  EXPECT_GE(r.final_multiset.elements()[0].value().as_int(), 0);
}

TEST_P(EngineSuite, PreCancelledTokenReturnsInitialState) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  CancelToken token;
  token.cancel();
  RunOptions opts;
  opts.workers = 3;
  opts.cancel = &token;
  const Multiset m = ints({1, 2, 3, 4});
  const auto r = make_engine(GetParam())->run(p, m, opts);
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.final_multiset, m);
}

TEST_P(EngineSuite, CancelFromAnotherThreadStopsTheRun) {
  const Program p = dsl::parse_program("R = replace x by x + 1");
  CancelToken token;
  RunOptions opts;
  opts.workers = 3;
  opts.max_steps = ~std::uint64_t{0};
  opts.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.cancel();
  });
  const auto r = make_engine(GetParam())->run(p, ints({0}), opts);
  canceller.join();
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_EQ(r.final_multiset.size(), 1u);
}

TEST_P(EngineSuite, BudgetWithPartialPolicyReturnsInsteadOfThrowing) {
  const Program p = dsl::parse_program("R = replace x by x + 1");
  RunOptions opts;
  opts.workers = 3;
  opts.max_steps = 25;
  opts.limit_policy = LimitPolicy::Partial;
  const auto r = make_engine(GetParam())->run(p, ints({0}), opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetExhausted);
  EXPECT_LE(r.steps, 25u);
  ASSERT_EQ(r.final_multiset.size(), 1u);
  EXPECT_EQ(r.final_multiset.elements()[0].value(),
            Value(static_cast<std::int64_t>(r.steps)));
}

TEST_P(EngineSuite, CompletedRunsReportCompletedOutcome) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const auto r = run(p, ints({1, 2, 3}));
  EXPECT_EQ(r.outcome, Outcome::Completed);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSuite,
                         ::testing::Values(Kind::Sequential, Kind::Indexed,
                                           Kind::Parallel),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Kind::Sequential: return "Sequential";
                             case Kind::Indexed: return "Indexed";
                             case Kind::Parallel: return "Parallel";
                           }
                           return "Unknown";
                         });

// ---- engine-specific behaviours ----

TEST(SequentialEngine, TraceRecordsEveryFiring) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  RunOptions opts;
  obs::RunRecorder recorder;
  opts.record = &recorder;
  (void)SequentialEngine().run(
      p, Multiset{Element{Value(1)}, Element{Value(2)}, Element{Value(3)}},
      opts);
  const obs::Journal j = recorder.take();
  ASSERT_EQ(j.fires.size(), 2u);
  for (const obs::FireRecord& ev : j.fires) {
    EXPECT_EQ(ev.reaction, "R");
    EXPECT_EQ(ev.consumed.size(), 2u);
    EXPECT_EQ(ev.produced.size(), 1u);
  }
  // The last fire produces the final sum.
  EXPECT_EQ(j.fires.back().produced[0], Element{Value(6)}.to_string());
}

TEST(SequentialEngine, UniformChoiceVariesWithSeed) {
  // First firing of the min program differs across seeds (several enabled
  // matches exist) — evidence the Eq. (1) "let x1..xn" choice is random.
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  const Multiset m{Element{Value(1)}, Element{Value(2)}, Element{Value(3)},
                   Element{Value(4)}};
  std::set<std::string> first_consumed;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    RunOptions opts;
    opts.seed = seed;
    obs::RunRecorder recorder;
    opts.record = &recorder;
    (void)SequentialEngine().run(p, m, opts);
    const obs::Journal j = recorder.take();
    ASSERT_FALSE(j.fires.empty());
    first_consumed.insert(j.fires[0].consumed[0] + j.fires[0].consumed[1]);
  }
  EXPECT_GT(first_consumed.size(), 2u);
}

TEST(IndexedEngine, TraceStagesAreMonotone) {
  const Program p = dsl::parse_program(R"(
    A = replace [x,'p'] by [x,'q'] ;
    B = replace [x,'q'] by [x,'r']
  )");
  RunOptions opts;
  obs::RunRecorder recorder;
  opts.record = &recorder;
  const auto r = IndexedEngine().run(
      p, Multiset{Element::labeled(Value(1), "p")}, opts);
  const obs::Journal j = recorder.take();
  ASSERT_EQ(j.fires.size(), 2u);
  EXPECT_EQ(j.fires[0].stage, 0);
  EXPECT_EQ(j.fires[1].stage, 1);
  EXPECT_EQ(r.final_multiset, (Multiset{Element::labeled(Value(1), "r")}));
}

TEST(IndexedEngine, PerFireCostDoesNotGrowWithTheInput) {
  // A fire removes two elements and inserts one. Removal clears a live bit
  // and updates a rank tree, O(log n), and moves no id of the arity bucket;
  // compaction copies at most every live row once per
  // kGarbageCompactThreshold dead rows, two dead rows per fire. So the ids
  // and rows that remove() and compact() touch per fire (StoreWork: ids an
  // ordered unindex shifted, rows compact() copied) stay within that
  // amortized copy as the input grows 16-fold. A count, not a time, so the
  // host's load cannot move it.
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  const auto per_fire = [&](std::size_t n) {
    Rng rng(n);
    Multiset m;
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::int64_t>(rng.bounded(2001)) - 1000;
      m.add(Element{Value(v)});
    }
    RunOptions opts;
    opts.seed = 1;
    const StoreWork before = store_work();
    const RunResult r = IndexedEngine().run(p, m, opts);
    const StoreWork after = store_work();
    EXPECT_EQ(r.steps, n - 1);
    const std::uint64_t touched = after.ids_shifted - before.ids_shifted +
                                  after.rows_copied - before.rows_copied;
    return static_cast<double>(touched) / static_cast<double>(r.steps);
  };
  const auto copy_bound = [](std::size_t n) {
    return 2.0 * static_cast<double>(n) /
           static_cast<double>(Store::kGarbageCompactThreshold);
  };
  const double small = per_fire(1024);
  const double large = per_fire(16384);
  EXPECT_LE(small, 1.0 + copy_bound(1024));
  EXPECT_LE(large, small + copy_bound(16384))
      << "ids and rows touched per fire: " << small << " at 1024 ints, "
      << large << " at 16384";
}

TEST(ParallelEngine, ManyWorkersConvergeOnLargeMultiset) {
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  Multiset m;
  std::int64_t expected = 0;
  for (std::int64_t i = 1; i <= 500; ++i) {
    m.add(Element{Value(i)});
    expected += i;
  }
  RunOptions opts;
  opts.workers = 4;
  const auto r = ParallelEngine().run(p, m, opts);
  EXPECT_EQ(r.final_multiset, (Multiset{Element{Value(expected)}}));
  EXPECT_EQ(r.steps, 499u);
}

/// The error text `engine` throws on `m`, or "no error".
std::string error_of(const Engine& engine, const Program& p, const Multiset& m,
                     unsigned workers) {
  RunOptions opts;
  opts.workers = workers;
  try {
    (void)engine.run(p, m, opts);
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(ParallelEngine, EvaluationErrorIsRethrownAsIndexedThrowsIt) {
  // Every schedule ends dividing a zero by a zero: there are always at
  // least two zeros, since x / y consumes a zero only to produce one.
  const Program p = dsl::parse_program("R = replace x, y by x / y");
  const Multiset m = ints({4, 0, 7, 2, 0});
  const std::string want = error_of(IndexedEngine(), p, m, 1);
  EXPECT_EQ(want, "TypeError: integer division by zero");
  for (const unsigned workers : {1u, 2u, 4u}) {
    EXPECT_EQ(error_of(ParallelEngine(), p, m, workers), want)
        << workers << " worker(s)";
  }
}

TEST(ParallelEngine, ErrorFirstRaisedAtAMergeLevelIsRethrown) {
  // One element per part: no part can fire, so the first match, and the
  // division by zero, happen when the parts merge.
  const Program p = dsl::parse_program("R = replace x, y by x / (y - y)");
  const Multiset m = ints({4, 7});
  for (const unsigned workers : {2u, 4u}) {
    EXPECT_EQ(error_of(ParallelEngine(), p, m, workers),
              "TypeError: integer division by zero")
        << workers << " worker(s)";
  }
}

TEST(ParallelEngine, BudgetRunsOutAtAMergeLevel) {
  // Two parts of 10 each take 9 fires apiece; the merge needs one more.
  const Program p = dsl::parse_program("R = replace x, y by x + y");
  Multiset m;
  for (std::int64_t i = 1; i <= 20; ++i) m.add(Element{Value(i)});
  RunOptions opts;
  opts.workers = 2;
  opts.max_steps = 18;
  opts.limit_policy = LimitPolicy::Partial;
  const auto r = ParallelEngine().run(p, m, opts);
  EXPECT_EQ(r.outcome, Outcome::BudgetExhausted);
  EXPECT_EQ(r.steps, 18u);
  ASSERT_EQ(r.final_multiset.size(), 2u);
  EXPECT_EQ(r.final_multiset.elements()[0].value().as_int() +
                r.final_multiset.elements()[1].value().as_int(),
            210);

  opts.limit_policy = LimitPolicy::Throw;
  try {
    (void)ParallelEngine().run(p, m, opts);
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_STREQ(e.what(),
                 "EngineError: parallel engine exceeded max_steps=18");
  }
}

/// Replays `j`'s fires over its initial store, requiring every consumed
/// element to be present; true when the replay lands on the final store.
bool replays_strictly(const obs::Journal& j) {
  obs::StoreCounts store = j.initial;
  for (const obs::FireRecord& fire : j.fires) {
    for (const std::string& e : fire.consumed) {
      const auto it = store.find(e);
      if (it == store.end()) return false;
      if (--it->second == 0) store.erase(it);
    }
    for (const std::string& e : fire.produced) ++store[e];
  }
  return store == j.final_store;
}

TEST(ParallelEngine, JournalsAreByteIdenticalAcrossRunsAndReplay) {
  struct Case {
    const char* name;
    const char* src;
    Multiset initial;
  };
  Multiset keyed;
  Multiset sum;
  for (std::int64_t i = 0; i < 512; ++i) {
    keyed.add(Element{Value((i * 37) % 1000),
                      Value(std::string("k").append(std::to_string(i % 16)))});
    sum.add(Element{Value((i * 53) % 2001 - 1000)});
  }
  Multiset sieve;
  for (std::int64_t i = 2; i <= 200; ++i) sieve.add(Element{Value(i)});
  const std::vector<Case> cases = {
      {"keyed", "Rkey = replace [x, k], [y, k] by [x + y, k]", keyed},
      {"sum", "Rsum = replace x, y by x + y", sum},
      {"sieve", "Rsieve = replace x, y by [x] where (y % x == 0) and (x > 1)",
       sieve}};
  for (const Case& c : cases) {
    const Program p = dsl::parse_program(c.src);
    RunOptions opts;
    opts.workers = 4;
    opts.seed = 5;
    std::string first;
    for (int rep = 0; rep < 20; ++rep) {
      obs::RunRecorder recorder;
      opts.record = &recorder;
      const auto r = ParallelEngine().run(p, c.initial, opts);
      const obs::Journal j = recorder.take();
      ASSERT_EQ(r.outcome, Outcome::Completed) << c.name;
      ASSERT_EQ(j.fires_dropped, 0u) << c.name;
      EXPECT_EQ(obs::verify_journal(j), "") << c.name;
      EXPECT_TRUE(replays_strictly(j)) << c.name;
      const std::string text = obs::journal_to_string(j);
      if (rep == 0) {
        first = text;
      } else {
        ASSERT_EQ(text, first) << c.name << ": run " << rep << " differs";
      }
    }
  }
}

TEST(ParallelEngine, SingleWorkerDegeneratesGracefully) {
  const Program p = dsl::parse_program("R = replace x, y by x where x < y");
  RunOptions opts;
  opts.workers = 1;
  const auto r = ParallelEngine().run(
      p, Multiset{Element{Value(2)}, Element{Value(1)}}, opts);
  EXPECT_EQ(r.final_multiset, (Multiset{Element{Value(1)}}));
}

}  // namespace
}  // namespace gammaflow::gamma
