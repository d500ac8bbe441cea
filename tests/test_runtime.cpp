// The runtime core: the StepLoop/StopFlag/InFlight primitives every engine is
// a thin policy over, the ShardMap label routing, and — the point of
// sharing one scaffolding — cross-engine contracts: the same corpus is
// state-identical across all engines (cluster included, the parallel engine
// at every worker count of a sweep), and the same stop condition classifies
// to the same Outcome everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/cancel.hpp"
#include "gammaflow/common/error.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/shard_map.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow::runtime {
namespace {

using gamma::Element;
using gamma::Multiset;
using gamma::Program;

Program parse(const char* src) { return gamma::dsl::parse_program(src); }

Multiset ints(std::int64_t from, std::int64_t to) {
  Multiset m;
  for (std::int64_t i = from; i <= to; ++i) m.add(Element{Value(i)});
  return m;
}

// --- StepLoop / StopFlag / InFlight ----------------------------------------

TEST(StepLoopTest, BudgetPartialRecordsBudgetExhausted) {
  RunOptions o;
  o.limit_policy = LimitPolicy::Partial;
  StepLoop loop(o, 3, "test engine", "max_steps");
  EXPECT_TRUE(loop.admit(0));
  EXPECT_TRUE(loop.admit(2));
  EXPECT_FALSE(loop.admit(3));
  EXPECT_FALSE(loop.running());
  EXPECT_EQ(loop.outcome(), Outcome::BudgetExhausted);
  EXPECT_TRUE(loop.should_stop());
}

TEST(StepLoopTest, BudgetThrowKeepsTheHistoricalErrorText) {
  RunOptions o;
  StepLoop loop(o, 2, "test engine", "max_steps");
  try {
    (void)loop.admit(2);
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_STREQ(e.what(), "EngineError: test engine exceeded max_steps=2");
  }
}

TEST(StepLoopTest, CancelWinsAndIsSticky) {
  CancelToken token;
  token.cancel();
  RunOptions o;
  o.cancel = &token;
  StepLoop loop(o, 100, "test engine", "max_steps");
  EXPECT_TRUE(loop.should_stop());
  EXPECT_EQ(loop.outcome(), Outcome::Cancelled);
  token.reset();
  EXPECT_TRUE(loop.should_stop());  // sticky: the run already stopped
  loop.stop(Outcome::BudgetExhausted);  // first writer won
  EXPECT_EQ(loop.outcome(), Outcome::Cancelled);
}

TEST(StopFlagTest, FirstPublisherWins) {
  StopFlag flag;
  EXPECT_FALSE(flag.stopped());
  EXPECT_EQ(flag.outcome(), Outcome::Completed);
  flag.publish(Outcome::Completed);  // no-op: not a stop reason
  EXPECT_FALSE(flag.stopped());
  flag.publish(Outcome::DeadlineExceeded);
  flag.publish(Outcome::Cancelled);
  EXPECT_TRUE(flag.stopped());
  EXPECT_EQ(flag.outcome(), Outcome::DeadlineExceeded);
}

TEST(InFlightTest, IdleOnlyAtZero) {
  InFlight in_flight;
  EXPECT_TRUE(in_flight.idle());
  in_flight.add(3);
  in_flight.sub();
  EXPECT_FALSE(in_flight.idle());
  in_flight.sub(2);
  EXPECT_TRUE(in_flight.idle());
}

// --- ShardMap ----------------------------------------------------------------

TEST(ShardMapTest, HomeIsTheMappedLabelsShard) {
  const ShardMap map({{"a", 0}, {"b", 1}}, 2);
  const Element labelled = Element::labeled(Value(7), "b");
  const Element inert = Element{Value(7)};
  ASSERT_TRUE(map.home(labelled).has_value());
  EXPECT_EQ(*map.home(labelled), 1u);
  EXPECT_FALSE(map.home(inert).has_value());
}

// --- MatchPipeline ---------------------------------------------------------

/// One find on a fresh MatchSite (an empty memo), its match copied out.
std::optional<gamma::Match> find_fresh(gamma::Store& store,
                                       const gamma::Reaction& r,
                                       Rng* rng = nullptr) {
  MatchSite site;
  if (!MatchPipeline::find(store, r, rng, site)) return std::nullopt;
  return site.match();
}

TEST(MatchPipelineTest, FindCommitRoundTrip) {
  const Program p = parse("R = replace x, y by x + y where x <= y");
  gamma::Store store(ints(1, 3), gamma::FieldSet::of(p));
  const gamma::Reaction& r = p.stages()[0][0];

  MatchSite site;
  ASSERT_TRUE(MatchPipeline::find(store, r, nullptr, site));
  MatchPipeline::commit(store, site.match());
  // One pair consumed, its sum produced: the total is unchanged.
  const Multiset after = store.to_multiset();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.elements()[0].value().as_int() +
                after.elements()[1].value().as_int(),
            6);
}

TEST(MatchPipelineTest, ExhaustedSearchIsAFixedPointProof) {
  const Program p = parse("R = replace x, y by x where x < y");
  gamma::Store store(ints(4, 4), gamma::FieldSet::of(p));  // one element: arity-2 pattern cannot bind
  EXPECT_FALSE(find_fresh(store, p.stages()[0][0]).has_value());
}

// --- MatchSite: one search state, reused ------------------------------------

TEST(MatchSiteTest, RebindToAnotherLineageFindsWhatAFreshSiteFinds) {
  // A site proves the reaction disabled on a first store, then meets a
  // store of another lineage built by as many inserts, so every (id,
  // stamp) pair of the first store's anchors names an element of the
  // second. The old proofs say nothing about those elements: the reused
  // site must find the match a fresh site finds, with the same rng stream.
  for (const char* src :
       {"R = replace x, y by x + y where x + y == 13",
        "R = replace [x, k], [y, k] by [x + y, k] where x + y == 13"}) {
    const Program p = parse(src);
    const gamma::Reaction& r = p.stages()[0][0];
    const bool pairs = r.patterns()[0].arity() == 2;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      SCOPED_TRACE(std::string(src) + " seed " + std::to_string(seed));
      Rng draws(seed);
      const auto element = [&](std::int64_t v) {
        return pairs ? Element{Value(v), Value(static_cast<std::int64_t>(
                                             draws.bounded(2)))}
                     : Element{Value(v)};
      };
      // No pair of 0..5 sums to 13, nor any of 7..12; the 6 and the 7 put
      // last (under one key) do.
      const std::size_t n = 8 + draws.bounded(24);
      Multiset none;
      Multiset one;
      for (std::size_t i = 0; i < n; ++i) {
        none.add(element(static_cast<std::int64_t>(draws.bounded(6))));
        if (i + 2 < n) {
          one.add(element(static_cast<std::int64_t>(7 + draws.bounded(6))));
        }
      }
      one.add(pairs ? Element{Value(6), Value(0)} : Element{Value(6)});
      one.add(pairs ? Element{Value(7), Value(0)} : Element{Value(7)});
      gamma::Store first(none, gamma::FieldSet::of(p));
      gamma::Store second(one, gamma::FieldSet::of(p));
      ASSERT_EQ(first.version(), second.version());

      MatchSite reused;
      Rng first_rng(seed);
      ASSERT_FALSE(MatchPipeline::find(first, r, &first_rng, reused));
      ASSERT_GT(reused.memo().watermark(first, first.nth_live(0)), 0u);

      Rng reused_rng(seed * 31);
      Rng fresh_rng(seed * 31);
      const bool found = MatchPipeline::find(second, r, &reused_rng, reused);
      const auto want = find_fresh(second, r, &fresh_rng);
      ASSERT_TRUE(want.has_value());
      ASSERT_TRUE(found);
      EXPECT_EQ(reused_rng(), fresh_rng());
      EXPECT_EQ(std::vector<gamma::Store::Id>(reused.match().ids.begin(),
                                              reused.match().ids.end()),
                std::vector<gamma::Store::Id>(want->ids.begin(),
                                              want->ids.end()));
      EXPECT_EQ(reused.match().produced(second), want->produced(second));
    }
  }
}

/// Every match `site`'s enumerate visits, as (ids, produced) renderings.
std::vector<std::string> visits(gamma::Store& store, const gamma::Reaction& r,
                                MatchSite& site) {
  std::vector<std::string> out;
  MatchPipeline::enumerate(store, r, 10000, site,
                           [&](const gamma::Match& m) {
                             std::string line;
                             for (const gamma::Store::Id id : m.ids) {
                               line.append(std::to_string(id)).append(" ");
                             }
                             for (const Element& e : m.produced(store)) {
                               line.append(e.to_string());
                             }
                             out.push_back(std::move(line));
                             return true;
                           });
  return out;
}

TEST(MatchSiteTest, WarmEnumerateVisitsWhatAFreshSiteVisits) {
  // One site enumerates after every change of a churning store (inserts,
  // removes, compactions, commits of a visited match); its memo skips the
  // anchors earlier sweeps proved fail. It must visit the same matches, in
  // the same order, as a fresh site does on the same store.
  for (const char* src :
       {"R = replace x, y by x where x > y and x + y == 10",
        "R = replace [x, k], [y, k] by [x + y, k] where x + y == 13"}) {
    const Program p = parse(src);
    const gamma::Reaction& r = p.stages()[0][0];
    const bool pairs = r.patterns()[0].arity() == 2;
    std::uint64_t skips = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      gamma::Store store(gamma::FieldSet::of(p));
      Rng ops(seed);
      const auto element = [&] {
        const Value v(static_cast<std::int64_t>(ops.bounded(12)));
        return pairs ? Element{v, Value(static_cast<std::int64_t>(
                                      ops.bounded(3)))}
                     : Element{v};
      };
      MatchSite warm;
      std::size_t matched = 0;
      for (int step = 0; step < 120; ++step) {
        SCOPED_TRACE(std::string(src) + " seed " + std::to_string(seed) +
                     " step " + std::to_string(step));
        const std::uint64_t op = ops.bounded(10);
        if (op < 6 || store.size() < 2) {
          store.insert(element());
        } else if (op < 8) {
          store.remove(store.nth_live(ops.bounded(store.size())));
        } else if (op == 8) {
          store.compact();
        } else {
          MatchSite site;
          if (MatchPipeline::find(store, r, &ops, site)) {
            MatchPipeline::commit(store, site.match());
          }
        }
        MatchSite fresh;
        const std::vector<std::string> want = visits(store, r, fresh);
        ASSERT_EQ(visits(store, r, warm), want);
        matched += want.size();
      }
      EXPECT_GT(matched, 0u);
      skips += warm.memo().skips();
    }
    EXPECT_GT(skips, 0u) << src;
  }
}

// --- AnchorMemo: failed-anchor watermarks ---------------------------------

TEST(AnchorMemoTest, SecondFailingFindEvaluatesNoLanesAndKeepsTheRngStream) {
  const Program p = parse("R = replace x, y by x where x + y < 0");
  const gamma::Reaction& r = p.stages()[0][0];
  gamma::Store store(ints(1, 200), gamma::FieldSet::of(p));
  Rng memo_rng(11);
  Rng plain_rng(11);
  MatchSite site;
  EXPECT_FALSE(MatchPipeline::find(store, r, &memo_rng, site));
  EXPECT_FALSE(find_fresh(store, r, &plain_rng).has_value());
  EXPECT_EQ(site.memo().skips(), 0u);

  const std::uint64_t lanes0 = expr::batch_lanes();
  EXPECT_FALSE(MatchPipeline::find(store, r, &memo_rng, site));
  EXPECT_EQ(expr::batch_lanes() - lanes0, 0u);
  EXPECT_EQ(site.memo().skips(), 200u);  // every anchor, none swept

  EXPECT_FALSE(find_fresh(store, r, &plain_rng).has_value());
  EXPECT_EQ(memo_rng(), plain_rng());
}

TEST(AnchorMemoTest, ThrowingSweepLeavesNoEntryAndRetriesThrowIdentically) {
  // Anchors 1..100 fail cleanly; anchor 0, inserted last, divides by zero
  // in its batch chunk, and the scalar resume throws.
  const Program p = parse("R = replace x, y by x where y % x > 1000");
  const gamma::Reaction& r = p.stages()[0][0];
  gamma::Store store;
  const gamma::Store::Id one = store.insert(Element{Value(1)});
  for (std::int64_t v = 2; v <= 100; ++v) store.insert(Element{Value(v)});
  const gamma::Store::Id zero = store.insert(Element{Value(0)});
  const auto error_of = [&](MatchSite& site) {
    try {
      (void)MatchPipeline::find(store, r, nullptr, site);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  MatchSite fresh;
  const std::string want = error_of(fresh);
  ASSERT_NE(want, "no error");

  MatchSite site;
  EXPECT_EQ(error_of(site), want);
  EXPECT_EQ(site.memo().watermark(store, zero), 0u);
  EXPECT_EQ(site.memo().watermark(store, one), store.version());
  const std::uint64_t lanes0 = expr::batch_lanes();
  EXPECT_EQ(error_of(site), want);
  EXPECT_EQ(site.memo().watermark(store, zero), 0u);
  EXPECT_EQ(site.memo().skips(), 100u);
  EXPECT_LE(expr::batch_lanes() - lanes0, store.size());  // anchor 0 only
}

/// Anchors of `store` whose visit a failed memoized find of the keyed join
/// below takes through the memo's cached join bucket and skips: a proof
/// with a valid handle, a bucket narrower than the arity bucket, and no
/// candidate stamped at or after the watermark.
std::size_t cached_skips(const gamma::Store& store, const AnchorMemo& memo) {
  std::size_t skips = 0;
  for (gamma::Store::Id id = 0; id < store.slots(); ++id) {
    if (!store.alive(id)) continue;
    const AnchorMemo::Proof* proof = memo.proof(store, id);
    if (proof == nullptr) continue;
    const gamma::Store::Bucket* bucket = store.field_bucket(proof->join);
    if (bucket != nullptr && !bucket->empty() &&
        bucket->size() < store.size() &&
        store.stamp(bucket->back()) < proof->watermark) {
      ++skips;
    }
  }
  return skips;
}

TEST(AnchorMemoTest, CachedJoinBucketSkipMatchesTheFullVisit) {
  // Seeded inserts and removes of [v, w] pairs over a small domain, so join
  // buckets empty and refill, with compactions that free bucket slots and
  // hand them to other keys, and a copy of the store and the memo taken
  // partway (the original then churns on and is destroyed). The second
  // program joins on a field the anchor need not carry, so an anchor's
  // cached bucket can be freed while the anchor lives. At every step the
  // memoized find returns the match a find with no memo returns and leaves
  // the Rng in the same state.
  for (const char* src :
       {"R = replace [x, k], [y, k] by [x + y, k] where x + y == 13",
        "R = replace [x, k], [k, y] by [x + y, k] where x + y == 13"}) {
    const Program p = parse(src);
    const gamma::Reaction& r = p.stages()[0][0];
    std::size_t fast_skips = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      auto store = std::make_unique<gamma::Store>(gamma::FieldSet::of(p));
      auto site = std::make_unique<MatchSite>();
      Rng ops(seed);
      Rng memo_rng(seed * 31);
      Rng plain_rng(seed * 31);
      const auto pair = [&ops] {
        return Element{Value(static_cast<std::int64_t>(ops.bounded(8))),
                       Value(static_cast<std::int64_t>(ops.bounded(8)))};
      };
      for (int step = 0; step < 400; ++step) {
        SCOPED_TRACE(std::string(src) + " seed " + std::to_string(seed) +
                     " step " + std::to_string(step));
        const std::uint64_t op = ops.bounded(10);
        if (op < 5 || store->size() < 2) {
          store->insert(pair());
        } else if (op < 8) {
          store->remove(store->nth_live(ops.bounded(store->size())));
        } else if (op == 8) {
          store->compact();
        }
        if (step == 200) {
          auto copy = std::make_unique<gamma::Store>(*store);
          auto site_copy = std::make_unique<MatchSite>(*site);
          while (store->size() > 4) store->remove(store->nth_live(0));
          store->compact();
          for (int i = 0; i < 8; ++i) store->insert(pair());
          store = std::move(copy);
          site = std::move(site_copy);
        }
        const std::size_t eligible = cached_skips(*store, site->memo());
        const bool found = MatchPipeline::find(*store, r, &memo_rng, *site);
        const auto without = find_fresh(*store, r, &plain_rng);
        ASSERT_EQ(found, without.has_value());
        Rng memo_next = memo_rng;
        Rng plain_next = plain_rng;
        ASSERT_EQ(memo_next(), plain_next());
        if (!found) {
          fast_skips += eligible;  // a failed find visits every anchor
          continue;
        }
        const gamma::Match& with_memo = site->match();
        ASSERT_EQ(with_memo.ids[0], without->ids[0]);
        ASSERT_EQ(with_memo.ids[1], without->ids[1]);
        ASSERT_EQ(with_memo.produced(*store), without->produced(*store));
        if (ops.bounded(2) == 0) MatchPipeline::commit(*store, with_memo);
      }
    }
    EXPECT_GT(fast_skips, 0u) << src;
  }
}

// --- Cross-engine equivalence: one corpus, every engine --------------------

const char* kChains = R"(
  A = replace [x,'a'] by [x + 1,'a2']
  B = replace [x,'b'] by [x * 2,'b2']
  C = replace [x,'c'] by [x - 1,'c2']
)";

struct CorpusCase {
  const char* name;
  const char* src;
  Multiset initial;
};

std::vector<CorpusCase> corpus() {
  std::vector<CorpusCase> cases;
  cases.push_back({"sum", "R = replace x, y by x + y", ints(1, 40)});
  cases.push_back({"max", "R = replace x, y by x where x > y", ints(3, 30)});
  cases.push_back(
      {"sieve",
       "R = replace x, y by x where (y % x == 0) and (x > 1)", ints(2, 40)});
  Multiset chains;
  for (int v = 0; v < 20; ++v) {
    chains.add(Element::labeled(Value(v), "a"));
    chains.add(Element::labeled(Value(v), "b"));
    chains.add(Element::labeled(Value(v), "c"));
  }
  cases.push_back({"chains", kChains, std::move(chains)});
  // Fewer elements than the sweep's widest partition: most parts are empty.
  cases.push_back({"staged", R"(
    A = replace [x, 'p'] by [x + 1, 'q'] ;
    B = replace [x, 'q'], [y, 'q'] by [x + y, 'q']
  )",
                   Multiset{Element::labeled(Value(1), "p"),
                            Element::labeled(Value(2), "p"),
                            Element::labeled(Value(3), "p")}});
  return cases;
}

TEST(CrossEngine, CorpusIsStateIdenticalAcrossEveryEngine) {
  for (const CorpusCase& c : corpus()) {
    const Program p = parse(c.src);
    const auto report = analysis::analyze_interference(p, c.initial);

    const Multiset oracle =
        gamma::SequentialEngine().run(p, c.initial).final_multiset;

    EXPECT_EQ(gamma::IndexedEngine().run(p, c.initial).final_multiset, oracle)
        << c.name << ": indexed";
    // Odd counts leave a part to carry over a merge level; 7 workers on
    // the staged case run empty parts.
    for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
      gamma::RunOptions par;
      par.workers = workers;
      const auto run = gamma::ParallelEngine().run(p, c.initial, par);
      EXPECT_EQ(run.outcome, Outcome::Completed) << c.name;
      EXPECT_EQ(run.final_multiset, oracle)
          << c.name << ": parallel, " << workers << " worker(s)";
    }

    if (p.stages().size() > 1) continue;  // the cluster runs one stage
    distrib::ClusterOptions copts;
    copts.nodes = 4;
    copts.label_affinity = report.label_affinity();
    const auto cluster = distrib::run_distributed(p, c.initial, copts);
    EXPECT_EQ(cluster.outcome, Outcome::Completed) << c.name;
    EXPECT_EQ(cluster.final_multiset, oracle) << c.name << ": cluster";
  }
}

TEST(CrossEngine, ConvertedDataflowGraphAgreesEverywhere) {
  // Fig. 1 through BOTH dataflow engines and, converted, through every Gamma
  // engine and the cluster: one program, six executions, one answer.
  const dataflow::Graph g = paper::fig1_graph();
  const auto df_a = dataflow::Interpreter().run(g);
  const auto df_b = dataflow::ParallelEngine().run(g);
  EXPECT_EQ(df_a.outputs, df_b.outputs);

  const auto conv = translate::dataflow_to_gamma(g);
  const Multiset oracle =
      gamma::SequentialEngine().run(conv.program, conv.initial).final_multiset;
  EXPECT_EQ(gamma::IndexedEngine().run(conv.program, conv.initial)
                .final_multiset,
            oracle);
  gamma::RunOptions par;
  par.workers = 3;
  EXPECT_EQ(gamma::ParallelEngine().run(conv.program, conv.initial, par)
                .final_multiset,
            oracle);
  distrib::ClusterOptions copts;
  copts.nodes = 3;
  EXPECT_EQ(distrib::run_distributed(conv.program, conv.initial, copts)
                .final_multiset,
            oracle);
}

// --- Cross-engine Outcome classification -----------------------------------
// The same stop condition must classify identically no matter which engine
// hits it — that is what sharing StepLoop/StopFlag buys.

std::vector<Outcome> gamma_outcomes_under(const gamma::RunOptions& base) {
  const Program p = parse("R = replace x by x + 1");  // non-terminating
  const Multiset m = ints(0, 0);
  std::vector<Outcome> outcomes;
  gamma::RunOptions opts = base;
  outcomes.push_back(gamma::SequentialEngine().run(p, m, opts).outcome);
  outcomes.push_back(gamma::IndexedEngine().run(p, m, opts).outcome);
  opts.workers = 3;
  outcomes.push_back(gamma::ParallelEngine().run(p, m, opts).outcome);
  return outcomes;
}

std::vector<Outcome> dataflow_outcomes_under(const dataflow::DfRunOptions& o) {
  // A long-running loop graph (counts far past any test deadline/budget).
  const dataflow::Graph g = paper::fig2_graph(10'000'000, 1, 20'000'000, false);
  std::vector<Outcome> outcomes;
  outcomes.push_back(dataflow::Interpreter().run(g, o).outcome);
  dataflow::DfRunOptions par = o;
  par.workers = 3;
  outcomes.push_back(dataflow::ParallelEngine().run(g, par).outcome);
  return outcomes;
}

Outcome cluster_outcome_under(const distrib::ClusterOptions& base) {
  const Program p = parse("R = replace x by x + 1");
  distrib::ClusterOptions opts = base;
  opts.nodes = 3;
  return distrib::run_distributed(p, ints(1, 6), opts).outcome;
}

TEST(CrossEngine, PreCancelledTokenClassifiesAsCancelledEverywhere) {
  CancelToken token;
  token.cancel();
  gamma::RunOptions go;
  go.cancel = &token;
  for (const Outcome o : gamma_outcomes_under(go)) {
    EXPECT_EQ(o, Outcome::Cancelled);
  }
  dataflow::DfRunOptions dfo;
  dfo.cancel = &token;
  for (const Outcome o : dataflow_outcomes_under(dfo)) {
    EXPECT_EQ(o, Outcome::Cancelled);
  }
  distrib::ClusterOptions co;
  co.cancel = &token;
  EXPECT_EQ(cluster_outcome_under(co), Outcome::Cancelled);
}

TEST(CrossEngine, DeadlineClassifiesAsDeadlineExceededEverywhere) {
  gamma::RunOptions go;
  go.deadline = 0.02;
  go.max_steps = ~std::uint64_t{0};
  for (const Outcome o : gamma_outcomes_under(go)) {
    EXPECT_EQ(o, Outcome::DeadlineExceeded);
  }
  dataflow::DfRunOptions dfo;
  dfo.deadline = 0.02;
  dfo.max_fires = ~std::uint64_t{0};
  for (const Outcome o : dataflow_outcomes_under(dfo)) {
    EXPECT_EQ(o, Outcome::DeadlineExceeded);
  }
  distrib::ClusterOptions co;
  co.deadline = 0.02;
  EXPECT_EQ(cluster_outcome_under(co), Outcome::DeadlineExceeded);
}

TEST(CrossEngine, BudgetPartialClassifiesAsBudgetExhaustedEverywhere) {
  gamma::RunOptions go;
  go.limit_policy = LimitPolicy::Partial;
  go.max_steps = 5;
  for (const Outcome o : gamma_outcomes_under(go)) {
    EXPECT_EQ(o, Outcome::BudgetExhausted);
  }
  dataflow::DfRunOptions dfo;
  dfo.limit_policy = LimitPolicy::Partial;
  dfo.max_fires = 5;
  for (const Outcome o : dataflow_outcomes_under(dfo)) {
    EXPECT_EQ(o, Outcome::BudgetExhausted);
  }
  distrib::ClusterOptions co;
  co.limit_policy = LimitPolicy::Partial;
  co.max_rounds = 2;
  EXPECT_EQ(cluster_outcome_under(co), Outcome::BudgetExhausted);
}

// --- Early-stop settlement under faults ------------------------------------

TEST(CrossEngine, ClusterSettlesInFlightTransfersOnEarlyStop) {
  // Sum chemistry conserves the total; stop mid-run (deadline) with an
  // actively faulty network and the settled partial state must still hold
  // the exact total — nothing lost on the wire, nothing double-counted.
  const Program p = parse("R = replace x, y by x + y");
  const Multiset init = ints(1, 120);
  std::int64_t expected = 0;
  for (const Element& e : init) expected += e.value().as_int();

  for (const std::uint64_t seed : {3u, 11u, 42u}) {
    distrib::ClusterOptions opts;
    opts.nodes = 5;
    opts.seed = seed;
    opts.fires_per_round = 1;  // converge slowly: the deadline wins
    opts.deadline = 0.005;
    opts.faults.loss = 0.2;
    opts.faults.duplication = 0.1;
    opts.faults.crash_rate = 0.05;
    const auto r = distrib::run_distributed(p, init, opts);
    std::int64_t total = 0;
    for (const Element& e : r.final_multiset) total += e.value().as_int();
    EXPECT_EQ(total, expected) << "seed " << seed << " outcome "
                               << to_string(r.outcome);
  }
}

TEST(CrossEngine, FaultySeedsStillClassifyOutcomesIdentically) {
  // Faults shake the schedule, never the classification: a completed faulty
  // run is Completed; a cancelled faulty run is Cancelled.
  const Program p = parse("R = replace x, y by x + y");
  const Multiset init = ints(1, 30);
  for (const std::uint64_t seed : {1u, 9u}) {
    distrib::ClusterOptions opts;
    opts.nodes = 4;
    opts.seed = seed;
    opts.faults.loss = 0.15;
    opts.faults.duplication = 0.1;
    const auto done = distrib::run_distributed(p, init, opts);
    EXPECT_EQ(done.outcome, Outcome::Completed) << seed;
    EXPECT_EQ(done.final_multiset, ints(465, 465)) << seed;

    CancelToken token;
    token.cancel();
    opts.cancel = &token;
    const auto stopped = distrib::run_distributed(p, init, opts);
    EXPECT_EQ(stopped.outcome, Outcome::Cancelled) << seed;
  }
}

}  // namespace
}  // namespace gammaflow::runtime
