// Distributed Gamma (§IV future work): sharded multisets, stirring,
// consolidation, and Safra termination detection — determinism, correctness
// against the centralized engines, and protocol edge cases.
#include <gtest/gtest.h>

#include <algorithm>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow::distrib {
namespace {

gamma::Multiset ints(std::int64_t from, std::int64_t to) {
  gamma::Multiset m;
  for (std::int64_t i = from; i <= to; ++i) m.add(gamma::Element{Value(i)});
  return m;
}

ClusterOptions opts(std::size_t nodes, std::uint64_t seed = 7) {
  ClusterOptions o;
  o.nodes = nodes;
  o.seed = seed;
  return o;
}

TEST(Distrib, SumMatchesCentralizedOnEveryClusterSize) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;
  for (const std::size_t nodes : {1u, 2u, 3u, 5u, 8u, 16u}) {
    const auto r = run_distributed(p, m, opts(nodes));
    EXPECT_EQ(r.final_multiset, expected) << nodes << " nodes";
    EXPECT_EQ(r.fires, 59u) << nodes << " nodes";
  }
}

TEST(Distrib, MinWithConditionConverges) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x where x < y");
  const auto r = run_distributed(p, ints(10, 50), opts(6));
  EXPECT_EQ(r.final_multiset, (gamma::Multiset{gamma::Element{Value(10)}}));
}

TEST(Distrib, DeterministicFromSeed) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  const auto a = run_distributed(p, m, opts(4, 11));
  const auto b = run_distributed(p, m, opts(4, 11));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.fires_by_node, b.fires_by_node);
  EXPECT_EQ(a.final_multiset, b.final_multiset);
}

TEST(Distrib, SeedsChangeScheduleNotResult) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  std::set<std::uint64_t> migration_counts;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto r = run_distributed(p, m, opts(4, seed));
    EXPECT_EQ(r.final_multiset,
              (gamma::Multiset{gamma::Element{Value(820)}}));
    migration_counts.insert(r.migrations);
  }
  EXPECT_GT(migration_counts.size(), 1u);  // schedules genuinely differ
}

TEST(Distrib, PlacementPoliciesAgreeOnResult) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 30);
  for (const Placement pl :
       {Placement::Hash, Placement::RoundRobin, Placement::Single}) {
    ClusterOptions o = opts(4);
    o.placement = pl;
    EXPECT_EQ(run_distributed(p, m, o).final_multiset,
              (gamma::Multiset{gamma::Element{Value(465)}}));
  }
}

TEST(Distrib, LabeledPartnersSeparatedByShardingStillMeet) {
  // A reaction needing an 'a' and a 'b' element; hash placement scatters
  // them. Stirring/consolidation must co-locate every pair.
  const auto p = gamma::dsl::parse_program(
      "R = replace [x,'a'], [y,'b'] by [x + y, 'c']");
  gamma::Multiset m;
  for (int i = 0; i < 12; ++i) {
    m.add(gamma::Element::labeled(Value(i), "a"));
    m.add(gamma::Element::labeled(Value(100 + i), "b"));
  }
  const auto r = run_distributed(p, m, opts(4));
  EXPECT_EQ(r.final_multiset.size(), 12u);
  EXPECT_EQ(r.final_multiset.with_label("c").size(), 12u);
  EXPECT_EQ(r.final_multiset.with_label("a").size(), 0u);
}

TEST(Distrib, ConvertedFig1ProgramRunsDistributed) {
  const auto conv = translate::dataflow_to_gamma(paper::fig1_graph());
  const auto r = run_distributed(conv.program, conv.initial, opts(3));
  EXPECT_EQ(r.final_multiset,
            (gamma::Multiset{gamma::Element::labeled(Value(0), "m")}));
}

TEST(Distrib, ConvertedFig2LoopRunsDistributed) {
  // The full tagged-token loop as distributed chemistry.
  const auto conv =
      translate::dataflow_to_gamma(paper::fig2_graph(4, 5, 100, true));
  const auto r = run_distributed(conv.program, conv.initial, opts(3, 5));
  const auto observed = r.final_multiset.with_label("x_final");
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].value(), Value(120));
}

TEST(Distrib, EmptyMultisetTerminatesImmediately) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const auto r = run_distributed(p, gamma::Multiset{}, opts(4));
  EXPECT_TRUE(r.final_multiset.empty());
  EXPECT_EQ(r.fires, 0u);
  EXPECT_GE(r.token_laps, 1u);  // at least one clean Safra lap ran
}

TEST(Distrib, DisabledProgramPreservesMultiset) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x where x < y");
  gamma::Multiset m{gamma::Element{Value(4)}, gamma::Element{Value(4)},
                    gamma::Element{Value(4)}};
  const auto r = run_distributed(p, m, opts(3));
  EXPECT_EQ(r.final_multiset, m);
  EXPECT_EQ(r.fires, 0u);
}

TEST(Distrib, SingleNodeDegeneratesToLocalEngine) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const auto r = run_distributed(p, ints(1, 20), opts(1));
  EXPECT_EQ(r.final_multiset, (gamma::Multiset{gamma::Element{Value(210)}}));
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(Distrib, FiresSpreadAcrossNodes) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const auto r = run_distributed(p, ints(1, 200), opts(4));
  std::size_t nodes_that_fired = 0;
  for (const auto f : r.fires_by_node) nodes_that_fired += f > 0;
  EXPECT_GE(nodes_that_fired, 2u);  // genuinely parallel chemistry
}

TEST(Distrib, MultiStageProgramRejected) {
  const auto p = gamma::dsl::parse_program(
      "A = replace [x,'p'] by [x,'q'] ; B = replace [x,'q'] by [x,'r']");
  EXPECT_THROW((void)run_distributed(p, gamma::Multiset{}, opts(2)),
               ProgramError);
}

TEST(Distrib, ZeroNodesRejected) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  EXPECT_THROW((void)run_distributed(p, gamma::Multiset{}, opts(0)),
               ProgramError);
}

TEST(Distrib, MaxRoundsGuards) {
  // Non-terminating chemistry: the cluster must hit the guard, not spin.
  const auto p = gamma::dsl::parse_program("R = replace x by x + 1");
  ClusterOptions o = opts(3);
  o.max_rounds = 50;
  EXPECT_THROW((void)run_distributed(p, ints(1, 4), o), EngineError);
}

TEST(Distrib, HighLatencyStillTerminates) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  ClusterOptions o = opts(4);
  o.latency = 5;
  const auto r = run_distributed(p, ints(1, 30), o);
  EXPECT_EQ(r.final_multiset, (gamma::Multiset{gamma::Element{Value(465)}}));
}

TEST(Distrib, PerFireCostDoesNotGrowWithTheInput) {
  // A node's fire is one indexed find and commit on its shard, and a
  // migration removes one id from the sender and inserts one row at the
  // receiver, so the rows the shards insert per fire (StoreWork: the
  // initial placement, one product per commit, one row per element moved)
  // stay flat as the input grows 4-fold. A shard rebuilt per migration
  // would insert every row of it again. A count, not a time, so the host's
  // load cannot move it.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const auto rows_per_fire = [&](std::size_t n) {
    Rng rng(n);
    gamma::Multiset m;
    for (std::size_t i = 0; i < n; ++i) {
      m.add(gamma::Element{
          Value(static_cast<std::int64_t>(rng.bounded(2001)) - 1000)});
    }
    const gamma::StoreWork before = gamma::store_work();
    const auto r = run_distributed(p, m, opts(4, 1));
    const gamma::StoreWork after = gamma::store_work();
    EXPECT_EQ(r.fires, m.size() - 1);
    return static_cast<double>(after.rows_inserted - before.rows_inserted) /
           static_cast<double>(r.fires);
  };
  const double small = rows_per_fire(4096);
  const double large = rows_per_fire(16384);
  EXPECT_LE(large, 1.25 * small)
      << "rows inserted per fire: " << small << " at 4096 ints, " << large
      << " at 16384";
}

TEST(Distrib, ConsolidationThresholdAffectsSchedule) {
  const auto p = gamma::dsl::parse_program(
      "R = replace [x,'a'], [y,'b'] by [x + y, 'c']");
  gamma::Multiset m;
  for (int i = 0; i < 8; ++i) {
    m.add(gamma::Element::labeled(Value(i), "a"));
    m.add(gamma::Element::labeled(Value(i), "b"));
  }
  ClusterOptions eager = opts(4);
  eager.consolidate_after = 1;
  ClusterOptions lazy = opts(4);
  lazy.consolidate_after = 10;
  const auto re = run_distributed(p, m, eager);
  const auto rl = run_distributed(p, m, lazy);
  // Which 'a' pairs with which 'b' is schedule-dependent (Gamma
  // nondeterminism); the invariants are the count and the total sum.
  auto total = [](const gamma::Multiset& ms) {
    std::int64_t sum = 0;
    for (const auto& e : ms) sum += e.value().as_int();
    return sum;
  };
  EXPECT_EQ(re.final_multiset.with_label("c").size(), 8u);
  EXPECT_EQ(rl.final_multiset.with_label("c").size(), 8u);
  EXPECT_EQ(total(re.final_multiset), total(rl.final_multiset));
  // The knob really changes the protocol: message traffic differs.
  EXPECT_NE(re.messages, rl.messages);
}

// ---------------------------------------------------------------------------
// Fault tolerance: the FaultPlan degrades the network and kills nodes; the
// ack/retry + checkpoint/replica + token-regeneration machinery must still
// converge to the centralized result, and the recovery counters must show
// the machinery actually engaged.
// ---------------------------------------------------------------------------

gamma::Multiset sum_oracle(const gamma::Multiset& m) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  return gamma::IndexedEngine().run(p, m).final_multiset;
}

TEST(DistribFault, LossyNetworkConverges) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  ClusterOptions o = opts(4, 3);
  o.faults.loss = 0.15;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_GT(r.messages_lost, 0u);        // the plan actually dropped traffic
  EXPECT_GT(r.retransmissions, 0u);      // ...and the senders re-sent it
  EXPECT_GT(r.acks, 0u);
}

TEST(DistribFault, DuplicatedElementMessagesAreSuppressed) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  ClusterOptions o = opts(4, 3);
  o.faults.duplication = 0.4;
  const auto r = run_distributed(p, m, o);
  // Duplicates delivered but deduped: the multiset stays exact (no element
  // counted twice) and the suppression counter proves copies arrived.
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_GT(r.messages_duplicated, 0u);
  EXPECT_GT(r.duplicates_suppressed, 0u);
}

TEST(DistribFault, ReorderedDeliveryConverges) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  ClusterOptions o = opts(4, 3);
  o.faults.reorder = 0.5;
  o.faults.reorder_jitter = 6;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_GT(r.messages_delayed, 0u);
}

TEST(DistribFault, LostTokenIsRegenerated) {
  // Heavy loss eats Safra tokens too; the initiator's watchdog must issue
  // replacements (new generation) or the run would spin to max_rounds.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  ClusterOptions o = opts(4, 5);
  o.faults.loss = 0.4;
  o.faults.token_timeout = 12;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_GE(r.token_regenerations, 1u);
}

TEST(DistribFault, ScheduledCrashRecoversFromReplica) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  ClusterOptions o = opts(4, 7);
  o.faults.crashes.push_back({3, 1, 4});  // node 1 dies at round 3
  const auto r = run_distributed(p, m, o);
  // The crash wiped node 1's live shard; the replica restore plus sender
  // retries mean not one element is lost or double-counted.
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.recoveries, 1u);
  EXPECT_GT(r.checkpoints, 0u);
}

TEST(DistribFault, CrashWhileHoldingTheTokenRegeneratesIt) {
  // Node 0 holds the token from the start; killing it at round 2 destroys
  // the token in hand. Only the generation-stamped regeneration path can
  // finish this run.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  ClusterOptions o = opts(4, 7);
  o.faults.crashes.push_back({2, 0, 3});
  o.faults.token_timeout = 10;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_GE(r.token_regenerations, 1u);
}

TEST(DistribFault, PartitionHealsAndConverges) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  ClusterOptions o = opts(4, 9);
  o.faults.partitions.push_back({2, 25, 2});  // {0,1} | {2,3} for 25 rounds
  o.faults.token_timeout = 12;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, sum_oracle(m));
  EXPECT_GT(r.messages_lost, 0u);  // cross-cut traffic was severed
}

TEST(DistribFault, EverythingAtOnceStillConverges) {
  const auto p = gamma::dsl::parse_program(
      "R = replace x, y by [x - y], [y] where x > y");
  gamma::Multiset m{gamma::Element{Value(24)}, gamma::Element{Value(36)},
                    gamma::Element{Value(60)}, gamma::Element{Value(84)}};
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;
  ClusterOptions o = opts(5, 13);
  o.faults.loss = 0.1;
  o.faults.duplication = 0.1;
  o.faults.reorder = 0.2;
  o.faults.crash_rate = 0.005;
  o.faults.crash_downtime = 2;
  o.faults.token_timeout = 16;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, expected);
}

TEST(DistribFault, FaultScheduleIsDeterministicFromSeed) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  ClusterOptions o = opts(4, 21);
  o.faults.loss = 0.2;
  o.faults.duplication = 0.1;
  o.faults.reorder = 0.3;
  o.faults.crash_rate = 0.01;
  o.faults.token_timeout = 16;
  const auto a = run_distributed(p, m, o);
  const auto b = run_distributed(p, m, o);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.token_regenerations, b.token_regenerations);
  EXPECT_EQ(a.final_multiset, b.final_multiset);
}

TEST(DistribFault, FaultFreeRunReportsZeroFaultCounters) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const auto r = run_distributed(p, ints(1, 30), opts(4));
  EXPECT_EQ(r.messages_lost, 0u);
  EXPECT_EQ(r.messages_duplicated, 0u);
  EXPECT_EQ(r.messages_delayed, 0u);
  EXPECT_EQ(r.retransmissions, 0u);
  EXPECT_EQ(r.duplicates_suppressed, 0u);
  EXPECT_EQ(r.crashes, 0u);
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_EQ(r.token_regenerations, 0u);
}

TEST(DistribFault, ValidationRejectsDegenerateOptions) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  {
    ClusterOptions o = opts(4);
    o.latency = 0;
    EXPECT_THROW((void)run_distributed(p, ints(1, 4), o), ProgramError);
  }
  {
    ClusterOptions o = opts(4);
    o.fires_per_round = 0;
    EXPECT_THROW((void)run_distributed(p, ints(1, 4), o), ProgramError);
  }
  {
    ClusterOptions o = opts(4);
    o.faults.loss = 1.5;
    EXPECT_THROW((void)run_distributed(p, ints(1, 4), o), ProgramError);
  }
  {
    ClusterOptions o = opts(4);
    o.faults.crashes.push_back({3, 99, 2});  // node out of range
    EXPECT_THROW((void)run_distributed(p, ints(1, 4), o), ProgramError);
  }
}

// Property sweep: 200 seeds under a mixed fault plan, every faulty run must
// converge to the oracle multiset. This is the paper-level claim — faults
// change the schedule, never the fixed point.
class DistribFaultSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistribFaultSweep, FaultyRunMatchesCentralizedOracle) {
  const std::uint64_t seed = GetParam();
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 36);
  ClusterOptions o = opts(4, seed);
  o.faults.loss = 0.08;
  o.faults.duplication = 0.05;
  o.faults.reorder = 0.15;
  o.faults.crash_rate = 0.002;
  o.faults.crash_downtime = 3;
  o.faults.token_timeout = 24;
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, sum_oracle(m)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistribFaultSweep,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{201}));

// Parameterized sweep: cluster size x seed grid, gcd workload (conditions +
// growth), all must agree with the centralized oracle.
class DistribGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(DistribGrid, GcdMatchesCentralized) {
  const auto [nodes, seed] = GetParam();
  const auto p = gamma::dsl::parse_program(
      "R = replace x, y by [x - y], [y] where x > y");
  gamma::Multiset m{gamma::Element{Value(24)}, gamma::Element{Value(36)},
                    gamma::Element{Value(60)}, gamma::Element{Value(84)}};
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;
  const auto r = run_distributed(p, m, opts(nodes, seed));
  EXPECT_EQ(r.final_multiset, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistribGrid,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{7}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})));

}  // namespace
}  // namespace gammaflow::distrib
