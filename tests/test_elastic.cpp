// Elastic durable cluster (membership churn + WAL durability): the
// rendezvous map's incremental-move contract, membership
// schedule validation, churn x fault sweeps against the centralized oracle,
// replication-factor crash overlap, and the write-ahead-log recovery paths
// (torn tails, kill-all resume, snapshot-vs-pure-log replay equivalence).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/distrib/wal.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/runtime/shard_map.hpp"

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

/// A scratch WAL directory unique to the test, wiped on destruction.
struct WalDir {
  explicit WalDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("gf-elastic-" + name + "-" +
               std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~WalDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// --- EpochShardMap: the incremental-move contract --------------------------

TEST(EpochShardMap, JoinMovesOnlyKeysTheJoinerWins) {
  const runtime::EpochShardMap before({0, 1, 2});
  const runtime::EpochShardMap after({0, 1, 2, 3});
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 5000; ++key) {
    const std::size_t was = before.owner_of(key);
    const std::size_t now = after.owner_of(key);
    if (was != now) {
      EXPECT_EQ(now, 3u) << "key " << key
                         << " changed owner without the joiner winning it";
      ++moved;
    }
    EXPECT_EQ(was != now, runtime::EpochShardMap::moved(key, before, after));
  }
  // Rendezvous hashing moves ~1/4 of the keyspace to the 4th member.
  EXPECT_GT(moved, 5000u / 8);
  EXPECT_LT(moved, 5000u / 2);
}

TEST(EpochShardMap, LeaveMovesOnlyTheLeaversKeys) {
  const runtime::EpochShardMap before({0, 1, 2, 3});
  const runtime::EpochShardMap after({0, 1, 3});
  for (std::uint64_t key = 0; key < 5000; ++key) {
    if (before.owner_of(key) != after.owner_of(key)) {
      EXPECT_EQ(before.owner_of(key), 2u)
          << "key " << key << " moved although its owner stayed a member";
    }
  }
}

TEST(EpochShardMap, SameMembersMoveNothing) {
  const runtime::EpochShardMap a({0, 2, 5});
  const runtime::EpochShardMap b({5, 0, 2});  // same members, another order
  for (std::uint64_t key = 0; key < 2000; ++key) {
    EXPECT_FALSE(runtime::EpochShardMap::moved(key, a, b));
  }
}

TEST(EpochShardMap, LabeledElementsOfOneLabelCoRoute) {
  const runtime::EpochShardMap map({0, 1, 2, 3, 4});
  const auto a1 = gamma::Element::labeled(Value(std::int64_t{1}), "alpha");
  const auto a2 = gamma::Element::labeled(Value(std::int64_t{999}), "alpha");
  const auto b = gamma::Element::labeled(Value(std::int64_t{1}), "beta");
  EXPECT_EQ(runtime::EpochShardMap::key_of(a1),
            runtime::EpochShardMap::key_of(a2));
  EXPECT_EQ(map.owner(a1), map.owner(a2));
  EXPECT_NE(runtime::EpochShardMap::key_of(a1),
            runtime::EpochShardMap::key_of(b));
}

// --- MembershipPlan / ClusterOptions validation ----------------------------

TEST(MembershipPlan, ValidateRejectsMalformedSchedules) {
  {
    MembershipPlan p;
    p.joins.push_back({0, 4});  // round 0 races initial placement
    EXPECT_THROW(p.validate(4), ProgramError);
  }
  {
    MembershipPlan p;
    p.leaves.push_back({3, 0});  // node 0 is the initiator/collector
    EXPECT_THROW(p.validate(4), ProgramError);
  }
  {
    MembershipPlan p;
    p.joins.push_back({2, 1});  // not a spare index
    EXPECT_THROW(p.validate(4), ProgramError);
  }
  {
    MembershipPlan p;
    p.joins.push_back({2, 4});
    p.joins.push_back({7, 4});  // double join
    EXPECT_THROW(p.validate(4), ProgramError);
  }
  {
    MembershipPlan p;
    p.leaves.push_back({5, 6});  // spare that never joins
    EXPECT_THROW(p.validate(4), ProgramError);
  }
  {
    MembershipPlan p;
    p.churn_rate = 1.5;
    EXPECT_THROW(p.validate(4), ProgramError);
  }
  {
    MembershipPlan p;  // a join then a later leave of the same spare is fine
    p.joins.push_back({2, 4});
    p.leaves.push_back({9, 4});
    p.churn_rate = 0.25;
    EXPECT_NO_THROW(p.validate(4));
    EXPECT_TRUE(p.any());
  }
}

TEST(ClusterOptions, ValidateRejectsBadElasticityKnobs) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 8);
  {
    ClusterOptions o = opts(4);
    o.replication_factor = 0;
    EXPECT_THROW(run_distributed(p, m, o), ProgramError);
  }
  {
    ClusterOptions o = opts(4);
    o.replication_factor = 4;  // >= nodes: a node would replicate to itself
    EXPECT_THROW(run_distributed(p, m, o), ProgramError);
  }
  {
    ClusterOptions o = opts(4);
    o.wal_snapshot_every = 0;
    EXPECT_THROW(run_distributed(p, m, o), ProgramError);
  }
  {
    ClusterOptions o = opts(4);
    o.resume = true;  // resume needs a wal_dir to resume FROM
    EXPECT_THROW(run_distributed(p, m, o), ProgramError);
  }
}

// --- churn correctness vs the centralized oracle ---------------------------

TEST(Elastic, ScheduledJoinAndLeaveMatchOracle) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;
  ClusterOptions o = opts(3, 11);
  o.faults.membership.joins.push_back({2, 3});
  o.faults.membership.joins.push_back({4, 4});
  o.faults.membership.leaves.push_back({6, 1});
  o.faults.membership.leaves.push_back({9, 3});
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, expected);
  EXPECT_EQ(r.joins, 2u);
  EXPECT_EQ(r.leaves, 2u);
  EXPECT_GE(r.epochs, 4u);  // every join and completed leave bumps the epoch
  EXPECT_GE(r.rebalances, r.joins + r.leaves);
  EXPECT_EQ(r.outcome, Outcome::Completed);
}

TEST(Elastic, ChurnIsDeterministicFromSeed) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  ClusterOptions o = opts(4, 23);
  o.faults.membership.churn_rate = 0.1;
  const auto a = run_distributed(p, m, o);
  const auto b = run_distributed(p, m, o);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.labels_moved, b.labels_moved);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.final_multiset, b.final_multiset);
}

TEST(Elastic, ChurnTimesFaultSweepMatchesOracleOn200Seeds) {
  // The acceptance sweep: membership churn (scheduled + random) layered on
  // an actively faulty network, 200 seeds, every final multiset identical
  // to the centralized fixed point. Conservation arguments this verifies:
  // rebalance retries, drain completion, replica restore, and Safra
  // generation bumps across epochs. Every fourth seed also runs min.gamma's
  // reaction (two patterns and a guard, so the nodes' anchor memos skip
  // work) one fire per round, with a WAL: a restart then installs either
  // the replica or, when no holder is up, the WAL, and each must bring a
  // memo that belongs to the shard it installs.
  const auto sum = gamma::dsl::parse_program("R = replace x, y by x + y");
  const auto min =
      gamma::dsl::parse_program("Rmin = replace x, y by x where x < y");
  const gamma::Multiset m = ints(1, 30);
  const auto expected = gamma::IndexedEngine().run(sum, m).final_multiset;
  const auto expected_min = gamma::IndexedEngine().run(min, m).final_multiset;
  const WalDir dir("sweep");
  std::size_t churny_runs = 0;
  std::uint64_t replica_restores = 0;
  std::uint64_t wal_restores = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    ClusterOptions o = opts(4, seed);
    o.faults.membership.joins.push_back({3, 4});
    o.faults.membership.leaves.push_back({5, 2});
    o.faults.membership.churn_rate = 0.05;
    o.faults.membership.max_churn = 4;
    o.faults.loss = 0.1;
    o.faults.duplication = 0.05;
    o.faults.crash_rate = 0.01;
    o.faults.max_crashes = 4;
    const auto r = run_distributed(sum, m, o);
    ASSERT_EQ(r.final_multiset, expected) << "seed " << seed;
    ASSERT_EQ(r.outcome, Outcome::Completed) << "seed " << seed;
    if (r.epochs > 2) ++churny_runs;

    if (seed % 4 != 0) continue;
    o.fires_per_round = 1;
    o.wal_dir = dir.path;
    const auto rm = run_distributed(min, m, o);
    ASSERT_EQ(rm.final_multiset, expected_min) << "min, seed " << seed;
    ASSERT_EQ(rm.outcome, Outcome::Completed) << "min, seed " << seed;
    replica_restores += rm.recoveries - rm.wal_replays;
    wal_restores += rm.wal_replays;
  }
  EXPECT_GT(churny_runs, 0u);  // random churn genuinely triggered
  EXPECT_GT(replica_restores, 0u);
  EXPECT_GT(wal_restores, 0u);
}

TEST(Elastic, LeaverDoesNotStrandACrashedNodesReplica) {
  // Regression, outside the 200-seed sweep: the sweep's configuration on
  // these seeds used to livelock to max_rounds. A leave shrank the ring to
  // one node (or left a DOWN node with no up holder), so the crashed node's
  // replica had nowhere to live and its restart waited forever — the live
  // nodes already held the fixed point, but replica_waits grew every round.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 30);
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;
  for (const std::uint64_t seed : {205u, 247u, 440u, 578u, 658u, 833u}) {
    ClusterOptions o = opts(4, seed);
    o.faults.membership.joins.push_back({3, 4});
    o.faults.membership.leaves.push_back({5, 2});
    o.faults.membership.churn_rate = 0.05;
    o.faults.membership.max_churn = 4;
    o.faults.loss = 0.1;
    o.faults.duplication = 0.05;
    o.faults.crash_rate = 0.01;
    o.faults.max_crashes = 4;
    o.max_rounds = 20000;  // the livelock ran to the 10^6 default
    const auto r = run_distributed(p, m, o);
    EXPECT_EQ(r.final_multiset, expected) << "seed " << seed;
    EXPECT_EQ(r.outcome, Outcome::Completed) << "seed " << seed;
    EXPECT_LT(r.replica_waits, 100u) << "seed " << seed;
  }
}

TEST(Elastic, RebalanceMovesOnlyLabelsWhoseAssignmentChanged) {
  // Freeze everything except the rebalance itself: a program that never
  // fires, no stirring, and one scheduled join. The elements shipped at the
  // epoch change must be exactly those whose rendezvous owner changed to
  // the joiner AND who were not already sitting on it.
  const auto p = gamma::dsl::parse_program(
      "R = replace x, y by x where x < y - 1000000");
  const gamma::Multiset m = ints(1, 80);
  ClusterOptions o = opts(3, 5);
  o.migrations_per_round = 0;
  o.consolidate_after = 1000000;  // no collector pulls before the join
  o.faults.membership.joins.push_back({2, 3});
  const auto r = run_distributed(p, m, o);

  const runtime::EpochShardMap before({0, 1, 2});
  const runtime::EpochShardMap after({0, 1, 2, 3});
  std::uint64_t expected_moves = 0;
  for (const gamma::Element& e : m) {
    const std::size_t placed = e.hash() % 3;  // Placement::Hash
    const std::uint64_t key = runtime::EpochShardMap::key_of(e);
    if (runtime::EpochShardMap::moved(key, before, after) &&
        after.owner_of(key) != placed) {
      ++expected_moves;
    }
  }
  EXPECT_EQ(r.labels_moved, expected_moves);
  EXPECT_EQ(r.fires, 0u);
  EXPECT_EQ(r.joins, 1u);
  EXPECT_EQ(r.epochs, 1u);
}

// --- replication factor ----------------------------------------------------

TEST(Elastic, ReplicationFactorTwoCoversAdjacentCrashOverlap) {
  // Crash a node together with its ring successor (its only R=1 holder).
  // With R=1 the restart must WAIT for the holder; with R=2 the second
  // holder serves the replica immediately.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 50);
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;

  ClusterOptions one = opts(4, 9);
  one.faults.crashes.push_back({2, 1, 2});   // node 1 back at round 4
  one.faults.crashes.push_back({2, 2, 12});  // its holder stays down longer
  const auto r1 = run_distributed(p, m, one);
  EXPECT_EQ(r1.final_multiset, expected);
  EXPECT_GT(r1.replica_waits, 0u);

  ClusterOptions two = one;
  two.replication_factor = 2;
  const auto r2 = run_distributed(p, m, two);
  EXPECT_EQ(r2.final_multiset, expected);
  EXPECT_EQ(r2.replica_waits, 0u);
}

// --- WAL: codec, replay, torn tails, resume --------------------------------

TEST(Wal, ElementCodecRoundTripsExactly) {
  using gamma::Element;
  const std::vector<Element> cases = {
      Element{Value(std::int64_t{0})},
      Element{Value(std::int64_t{-42})},
      Element{Value(0.1)},                       // not representable in text
      Element{Value(-1.0e300)},
      Element{Value(true), Value(false)},
      Element{Value()},                          // nil
      Element{Value(std::string{})},             // empty string
      Element{Value(std::string{"with space \n\t and ; tokens ("})},
      Element{Value(std::string{"\xff\x00\x01", 3})},  // non-UTF8 bytes
      Element::labeled(Value(3.14159265358979), "label with spaces"),
      Element::tagged(Value(std::int64_t{7}), "t", 99),
  };
  for (const Element& e : cases) {
    const std::string text = encode_element(e);
    const std::vector<std::string> toks = [&] {
      std::vector<std::string> out;
      std::string cur;
      for (const char c : text) {
        if (c == ' ') {
          if (!cur.empty()) out.push_back(cur);
          cur.clear();
        } else {
          cur.push_back(c);
        }
      }
      if (!cur.empty()) out.push_back(cur);
      return out;
    }();
    std::size_t pos = 0;
    const auto decoded = decode_elements(toks, pos);
    ASSERT_EQ(decoded.size(), 1u) << text;
    EXPECT_EQ(decoded[0], e) << text;
    EXPECT_EQ(pos, toks.size()) << text;
  }
}

TEST(Wal, CompletedRunsLogsReplayToTheFinalShards) {
  const WalDir dir("replay");
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  ClusterOptions o = opts(3, 13);
  o.wal_dir = dir.path;
  const auto r = run_distributed(p, m, o);
  EXPECT_GT(r.wal_bytes, 0u);
  EXPECT_GT(r.wal_records, 0u);

  gamma::Multiset from_logs;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto st = replay_node_wal(wal_node_path(dir.path, i));
    ASSERT_TRUE(st.valid) << "node " << i;
    EXPECT_EQ(st.torn_bytes, 0u) << "node " << i;
    EXPECT_TRUE(st.pending.empty()) << "node " << i;  // all acked at the end
    from_logs.add(st.shard);
  }
  EXPECT_EQ(from_logs, r.final_multiset);
}

TEST(Wal, KillAllResumeReachesTheIdenticalFixedPoint) {
  // Emulate kill -9 of the whole cluster deterministically: stop the run
  // cold at a round budget (Partial policy — the in-memory settlement never
  // reaches the disk), then restart from the WAL directory alone. The
  // resumed run must land on the byte-identical final store of an
  // uninterrupted run.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 60);
  ClusterOptions base = opts(4, 17);
  base.faults.membership.joins.push_back({2, 4});
  base.faults.membership.leaves.push_back({5, 2});
  const auto uninterrupted = [&] {
    const WalDir dir("uninterrupted");
    ClusterOptions o = base;
    o.wal_dir = dir.path;
    return run_distributed(p, m, o);
  }();
  EXPECT_EQ(uninterrupted.outcome, Outcome::Completed);

  for (const std::size_t kill_at : {3u, 6u, 10u}) {
    const WalDir dir("killall-" + std::to_string(kill_at));
    ClusterOptions killed = base;
    killed.wal_dir = dir.path;
    killed.max_rounds = kill_at;
    killed.limit_policy = LimitPolicy::Partial;
    const auto partial = run_distributed(p, m, killed);
    EXPECT_EQ(partial.outcome, Outcome::BudgetExhausted) << kill_at;

    // The resumed invocation passes the SAME schedule (the manifest checks
    // the cluster shape); events at or before the restored round are
    // pruned, later ones still fire.
    ClusterOptions resumed = base;
    resumed.wal_dir = dir.path;
    resumed.resume = true;
    const auto r = run_distributed(p, m, resumed);
    EXPECT_EQ(r.final_multiset, uninterrupted.final_multiset)
        << "killed at round " << kill_at;
    EXPECT_EQ(r.outcome, Outcome::Completed) << kill_at;
  }
}

TEST(Wal, ResumeOfACompletedRunIsANoOpFixedPoint) {
  const WalDir dir("noop");
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 30);
  ClusterOptions o = opts(3, 7);
  o.wal_dir = dir.path;
  const auto first = run_distributed(p, m, o);

  ClusterOptions again = o;
  again.resume = true;
  const auto second = run_distributed(p, m, again);
  EXPECT_EQ(second.final_multiset, first.final_multiset);
  EXPECT_EQ(second.fires, 0u);  // nothing left to do
}

TEST(Wal, TornTailIsTruncatedAndReplayStopsAtTheLastMarker) {
  const WalDir dir("torn");
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 30);
  ClusterOptions o = opts(3, 19);
  o.wal_dir = dir.path;
  (void)run_distributed(p, m, o);

  const std::string path = wal_node_path(dir.path, 0);
  const auto intact = replay_node_wal(path);
  ASSERT_TRUE(intact.valid);

  // Tear the tail mid-record: drop the file's last 7 bytes, then append a
  // line whose CRC cannot match.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "garbage that is not a framed record\n";
  }
  const auto torn = replay_node_wal(path);
  ASSERT_TRUE(torn.valid);
  EXPECT_GT(torn.torn_bytes, 0u);
  // The state is whatever the last INTACT round marker pinned; the final
  // marker lived in the torn tail, so replay lands one marker earlier.
  EXPECT_LE(torn.round, intact.round);
  // The tear is also gone from disk: a second replay sees a clean file.
  const auto again = replay_node_wal(path);
  ASSERT_TRUE(again.valid);
  EXPECT_EQ(again.torn_bytes, 0u);
  EXPECT_EQ(again.round, torn.round);
  EXPECT_EQ(again.shard, torn.shard);
}

TEST(Wal, SnapshotPlusTailEqualsPureLogReplay) {
  // Same run, two compaction cadences: aggressive snapshots vs none at all.
  // Replayed node states and the resumed fixed point must be identical —
  // compaction changes the FILE, never the state it replays to.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 40);
  const WalDir snappy_dir("snappy");
  const WalDir pure_dir("pure");

  ClusterOptions snappy = opts(3, 29);
  snappy.wal_dir = snappy_dir.path;
  snappy.wal_snapshot_every = 4;
  snappy.max_rounds = 8;
  snappy.limit_policy = LimitPolicy::Partial;
  ClusterOptions pure = snappy;
  pure.wal_dir = pure_dir.path;
  pure.wal_snapshot_every = 1000000;  // never compacts mid-run
  const auto a = run_distributed(p, m, snappy);
  const auto b = run_distributed(p, m, pure);
  EXPECT_GT(a.wal_compactions, b.wal_compactions);

  for (std::size_t i = 0; i < 3; ++i) {
    const auto sa = replay_node_wal(wal_node_path(snappy_dir.path, i));
    const auto sb = replay_node_wal(wal_node_path(pure_dir.path, i));
    ASSERT_TRUE(sa.valid && sb.valid) << i;
    EXPECT_EQ(sa.shard, sb.shard) << i;
    EXPECT_EQ(sa.round, sb.round) << i;
    EXPECT_EQ(sa.next_seq, sb.next_seq) << i;
    EXPECT_EQ(sa.message_count, sb.message_count) << i;
  }

  ClusterOptions ra = opts(3, 29);
  ra.wal_dir = snappy_dir.path;
  ra.resume = true;
  ClusterOptions rb = ra;
  rb.wal_dir = pure_dir.path;
  EXPECT_EQ(run_distributed(p, m, ra).final_multiset,
            run_distributed(p, m, rb).final_multiset);
}

TEST(Wal, SingleNodeRestartWithNoUpHolderReplaysItsWal) {
  // Node 1 and its only holder (node 2) crash together; node 1 is due back
  // while node 2 is still down. With no holder to serve the replica, the
  // restart replays node 1's own WAL (counted in wal_replays) instead of
  // waiting, and the run still converges to the oracle's fixed point.
  const WalDir dir("noholder");
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m = ints(1, 50);
  const auto expected = gamma::IndexedEngine().run(p, m).final_multiset;
  ClusterOptions o = opts(4, 9);
  o.wal_dir = dir.path;
  o.faults.crashes.push_back({2, 1, 2});   // node 1 back at round 4
  o.faults.crashes.push_back({2, 2, 12});  // its holder stays down longer
  const auto r = run_distributed(p, m, o);
  EXPECT_EQ(r.final_multiset, expected);
  EXPECT_GE(r.wal_replays, 1u);
  EXPECT_EQ(r.replica_waits, 0u);
  EXPECT_EQ(r.crashes, 2u);

  // Node 1 crashes again in the round its WAL replay ran, and its holder is
  // back by its next restart: the holder then serves the frozen state, which
  // is the WAL-installed one.
  const WalDir again_dir("noholder_again");
  ClusterOptions again = opts(4, 9);
  again.wal_dir = again_dir.path;
  again.faults.crashes.push_back({2, 1, 2});  // node 1 back at round 4 ...
  again.faults.crashes.push_back({2, 2, 3});  // ... before node 2 (round 5)
  again.faults.crashes.push_back({4, 1, 2});  // down again until round 6
  const auto ra = run_distributed(p, m, again);
  EXPECT_EQ(ra.final_multiset, expected);
  EXPECT_EQ(ra.wal_replays, 1u);
  EXPECT_EQ(ra.recoveries, 3u);
  EXPECT_EQ(ra.crashes, 3u);
}

TEST(Wal, ResumeWithoutAManifestThrows) {
  const WalDir dir("empty");
  std::filesystem::create_directories(dir.path);
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  ClusterOptions o = opts(3);
  o.wal_dir = dir.path;
  o.resume = true;
  EXPECT_THROW(run_distributed(p, ints(1, 5), o), ProgramError);
}

TEST(Wal, ResumeRejectsAClusterShapeMismatch) {
  const WalDir dir("shape");
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  ClusterOptions o = opts(3, 7);
  o.wal_dir = dir.path;
  (void)run_distributed(p, ints(1, 20), o);

  ClusterOptions other = opts(5, 7);  // different --nodes than the WAL's run
  other.wal_dir = dir.path;
  other.resume = true;
  EXPECT_THROW(run_distributed(p, ints(1, 20), other), ProgramError);
}

}  // namespace
}  // namespace gammaflow::distrib
