// Distributed Gamma: the paper's §IV research thread ("the implementation of
// Gamma distributed multisets" for IoT environments), as a deterministic
// round-based simulation.
//
// N nodes each hold a shard of the multiset and run LOCAL reaction matching
// (a reaction only fires on co-located elements — the physical constraint a
// distributed chemistry has). Between rounds, nodes exchange elements over a
// simulated ring network:
//
//   * active nodes fire up to `fires_per_round` local matches;
//   * nodes "stir the solution" by migrating a few random elements to random
//     peers (diffusion), so separated reaction partners eventually meet;
//   * a node that stays locally quiescent for `consolidate_after` rounds
//     has its shard pulled to the collector — shards snowball until one node
//     holds everything it needs to prove the global fixed point;
//   * global termination is detected with Safra's token algorithm: a
//     colored token circulates counting messages in flight; the initiator
//     declares termination only after a clean white lap with balanced
//     counters.
//
// The network is NOT assumed lossless and the nodes are NOT immortal —
// which is the defining hazard of the IoT environments §IV targets. A
// seed-driven FaultPlan (common/fault.hpp) can drop, duplicate, and delay
// messages, crash-restart nodes, and sever the ring; the protocol recovers:
//
//   * element/pull transfers carry per-sender sequence numbers, are acked
//     by the receiver, and retried with exponential backoff until acked;
//     receivers suppress duplicate deliveries so Safra's counters stay
//     balanced (each logical message is counted exactly once per side);
//   * every node checkpoints its shard (and protocol state) to its ring
//     successor at the end of each round; a crash loses the live shard and
//     the restarted node re-installs the replica — together with
//     sender-side retry this makes crashes lose no elements. A down node
//     is frozen (nothing delivers to it or runs on it), so its frozen state
//     IS that replica: the simulator keeps one copy of each node and models
//     the holders only as who is up to serve it;
//   * a retransmission or a restart blackens the next Safra lap (both
//     violate EWD998's "passive machines don't send" premise), and a token
//     destroyed by a crash or the network is regenerated by the initiator
//     after a timeout, with a generation stamp so stale tokens are ignored.
//
// The cluster is also ELASTIC and DURABLE (PR 7):
//
//   * a MembershipPlan (FaultPlan::membership) schedules seed-deterministic
//     joins and graceful leaves; label->node ownership follows an
//     epoch-stamped rendezvous hash (runtime::EpochShardMap), so every
//     membership change triggers an INCREMENTAL rebalance that transfers
//     only the elements whose owner changed — with the same sequence-
//     numbered ack+retry transport as stirring. A leaving node drains: it
//     ships its shard to the new owners, forwards anything still arriving,
//     and deactivates only when no transfer anywhere still targets it. The
//     Safra generation is bumped on every epoch change so stale tokens die
//     and termination stays sound across reconfigurations;
//   * with ClusterOptions::wal_dir set, every node writes a CRC-framed
//     write-ahead log of committed fires and transfers plus periodic
//     compacting snapshots (distrib/wal.hpp). A full-cluster kill restarts
//     from disk with `resume`; a single-node restart replays its local WAL
//     when no replica holder is up.
//
// The simulation is fully deterministic from the seed — fault schedule
// included — making every recovery path unit-testable (including the
// classic Safra pitfalls: a message in flight behind the token must blacken
// the next lap).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gammaflow/common/fault.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::distrib {

enum class Placement {
  Hash,        // element-hash sharding (scatters labels)
  RoundRobin,  // element i -> node i mod N
  Single,      // everything starts on node 0 (degenerate baseline)
};

/// Inherited runtime::RunOptions knobs that apply here: `telemetry`,
/// `cancel`, `deadline`, and `limit_policy` (what exceeding max_rounds
/// does). On a cancel/deadline/budget stop the simulation settles every
/// unacked in-flight transfer before returning, so the partial multiset is
/// exact — no element lost on the wire, none double-counted. `record` captures per-fire provenance
/// (with the firing node's index) and one journal round per cluster round.
/// `workers` is ignored (concurrency is `nodes`).
struct ClusterOptions : runtime::RunOptions {
  std::size_t nodes = 4;
  std::uint64_t seed = 1;
  Placement placement = Placement::Hash;
  /// Local matches fired per node per round (>= 1).
  std::size_t fires_per_round = 4;
  /// Random elements pushed to random peers per node per round (stirring).
  std::size_t migrations_per_round = 1;
  /// Rounds of local quiescence before a node ships its shard onward.
  std::size_t consolidate_after = 3;
  /// Network latency in rounds for every message (>= 1).
  std::size_t latency = 1;
  /// Safety cap; exceeded => EngineError.
  std::size_t max_rounds = 1'000'000;
  /// Failure schedule (loss/dup/reorder/crash/partition); default = no
  /// faults. Decisions are drawn from a stream derived from `seed`.
  FaultPlan faults;
  /// Placement hint from static analysis (label -> conflict class, normally
  /// InterferenceReport::label_affinity()). Classes map onto nodes
  /// round-robin: elements of one class start co-located (all its reaction
  /// partners on one node), and stirring routes stray elements to their
  /// class's home node instead of a random peer — fewer rounds until
  /// cross-node matches assemble. Labels not in the map fall back to
  /// `placement`. Purely a hint: results are identical either way. (A
  /// cluster node IS a shard: the routing is runtime::ShardMap, which only
  /// the cluster uses; the in-process ParallelEngine deals elements
  /// round-robin.) Under membership churn an affinity home that has left
  /// is re-routed to the epoch map's owner instead.
  std::map<std::string, std::size_t> label_affinity;

  /// Checkpoint holders per node (>= 1, < nodes when nodes > 1). 1 is the
  /// classic ring successor; with R > 1 each node's end-of-round state is
  /// held by its R ring successors, so a node and its successor crashing in
  /// the same rounds no longer strands the shard until the successor is
  /// back — recovery proceeds from any up holder.
  std::size_t replication_factor = 1;
  /// Directory for per-node write-ahead logs + the cluster manifest; empty
  /// disables durability. With a WAL, committed fires and transfers are on
  /// disk before they are acknowledged, so a full-cluster kill is resumable
  /// (`resume`) and a single-node restart with no up replica holder
  /// replays its own WAL instead of waiting.
  std::string wal_dir;
  /// Rounds between compacting WAL snapshots (rewrite as one snapshot
  /// instead of an ever-growing record suffix).
  std::size_t wal_snapshot_every = 64;
  /// Restore the whole cluster from `wal_dir` (round, epoch, membership,
  /// shards, in-flight transfers) instead of placing `initial`, then run to
  /// the fixed point. Requires wal_dir + an intact manifest.
  bool resume = false;

  /// Throws ProgramError on degenerate knobs (latency == 0 or
  /// fires_per_round == 0 silently livelock; nodes == 0 is meaningless),
  /// malformed membership schedules, or an out-of-range replication factor.
  void validate() const;
};

struct ClusterResult {
  gamma::Multiset final_multiset;
  /// Why the run returned. Anything but Completed means final_multiset is
  /// the valid PARTIAL distributed state at the stop point (in-flight
  /// transfers settled — see ClusterOptions), not the global fixed point.
  Outcome outcome = Outcome::Completed;
  std::size_t rounds = 0;
  std::uint64_t fires = 0;
  std::uint64_t migrations = 0;       // elements moved (stir + consolidation)
  std::uint64_t messages = 0;         // network messages carried (incl. acks)
  std::uint64_t token_laps = 0;       // Safra laps until termination
  std::vector<std::uint64_t> fires_by_node;
  std::vector<std::size_t> final_shard_sizes;
  // --- fault / recovery accounting (all zero on a fault-free run) ---
  std::uint64_t acks = 0;                    // ack messages sent
  std::uint64_t retransmissions = 0;         // unacked transfers re-sent
  std::uint64_t messages_lost = 0;           // copies dropped (network/down)
  std::uint64_t messages_duplicated = 0;     // extra copies injected
  std::uint64_t messages_delayed = 0;        // copies given reorder jitter
  std::uint64_t duplicates_suppressed = 0;   // deliveries deduped by seq
  std::uint64_t crashes = 0;                 // node crash events
  std::uint64_t recoveries = 0;              // nodes restarted from replica
  std::uint64_t checkpoints = 0;             // shard snapshots replicated
  std::uint64_t token_regenerations = 0;     // Safra tokens declared lost
  // --- elasticity accounting (membership churn + rebalance) ---
  std::uint64_t epochs = 0;          // membership epoch changes
  std::uint64_t joins = 0;           // nodes that joined the ring
  std::uint64_t leaves = 0;          // graceful leaves fully drained
  std::uint64_t rebalances = 0;      // incremental rebalance passes
  std::uint64_t labels_moved = 0;    // elements moved because their shard
                                     // assignment changed between epochs
  std::uint64_t replica_waits = 0;   // recovery rounds stalled: no up holder
  // --- durability accounting (all zero without wal_dir) ---
  std::uint64_t wal_bytes = 0;        // bytes appended across node WALs
  std::uint64_t wal_records = 0;      // records appended across node WALs
  std::uint64_t wal_compactions = 0;  // snapshot rewrites
  std::uint64_t wal_replays = 0;      // restarts served from a local WAL
  /// Registry snapshot; empty unless ClusterOptions::telemetry was set.
  MetricsSnapshot metrics;
};

/// Runs `program` (single-stage) on `initial` distributed over the cluster.
/// The result multiset equals what a centralized engine computes whenever
/// the program is confluent (tested property) — including under an active
/// FaultPlan, because transfers are retried until acked and crashed shards
/// are restored from their replicas. Throws ProgramError for multi-stage
/// programs or invalid options and EngineError when max_rounds is exceeded
/// under LimitPolicy::Throw; cancel/deadline stops (and budget stops under
/// Partial) return the settled partial state with ClusterResult::outcome set.
[[nodiscard]] ClusterResult run_distributed(const gamma::Program& program,
                                            const gamma::Multiset& initial,
                                            const ClusterOptions& options = {});

}  // namespace gammaflow::distrib
