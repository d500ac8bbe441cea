#include "gammaflow/distrib/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/distrib/wal.hpp"
#include "gammaflow/gamma/stage_fixpoint.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/shard_map.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::distrib {

using gamma::Element;
using gamma::Multiset;
using gamma::Store;

void ClusterOptions::validate() const {
  if (nodes == 0) throw ProgramError("cluster needs >= 1 node");
  if (latency == 0) {
    throw ProgramError(
        "ClusterOptions::latency must be >= 1 (a zero-latency message would "
        "arrive in the round it was sent, breaking the round phases)");
  }
  if (fires_per_round == 0) {
    throw ProgramError(
        "ClusterOptions::fires_per_round must be >= 1 (a cluster that never "
        "fires locally livelocks instead of reaching the fixed point)");
  }
  if (replication_factor == 0) {
    throw ProgramError(
        "ClusterOptions::replication_factor must be >= 1 (zero holders "
        "means crashes lose the shard)");
  }
  if (nodes > 1 && replication_factor >= nodes) {
    throw ProgramError("ClusterOptions::replication_factor must be < nodes "
                       "(a node cannot checkpoint to itself)");
  }
  if (wal_snapshot_every == 0) {
    throw ProgramError("ClusterOptions::wal_snapshot_every must be >= 1");
  }
  if (resume && wal_dir.empty()) {
    throw ProgramError(
        "ClusterOptions::resume needs wal_dir (there is nothing to restore "
        "from without a write-ahead log)");
  }
  faults.validate();
  faults.membership.validate(nodes);
}

namespace {

/// Reliable-transfer kinds. Elements and Pull are LOGICAL messages (counted
/// by Safra, sequence-numbered, acked, retried); Ack is control traffic.
enum class MsgKind : std::uint8_t { Elements, Pull, Ack };

/// Membership state of a node slot. Members run chemistry and own labels;
/// a Draining node is still on the Safra ring (its counters stay in the
/// global sum) but out of the ownership map: it ships its shard away,
/// forwards anything still arriving, and deactivates when nothing in the
/// whole cluster still targets it. Inactive slots are spares (future joins)
/// or completed leaves.
enum class NState : std::uint8_t { Inactive, Member, Draining };

/// One physical message copy in the simulated network. Loss drops it,
/// duplication enqueues a second one, reordering inflates arrival_round.
struct Wire {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t arrival_round = 0;
  MsgKind kind = MsgKind::Elements;
  std::uint64_t seq = 0;  // sender-scoped id; an Ack echoes the acked seq
  std::vector<Element> elements;
};

struct Token {
  bool black = false;
  std::int64_t count = 0;
  std::uint64_t gen = 0;  // regeneration stamp; stale tokens are discarded
};

struct TokenMsg {
  std::size_t to = 0;
  std::size_t arrival_round = 0;
  Token token;
};

/// An unacked logical transfer, retried with exponential backoff. Keeping
/// the element payload here is what makes a lost shard recoverable: the
/// data survives at the sender until the receiver confirms it.
struct OutboxEntry {
  std::size_t to = 0;
  std::uint64_t seq = 0;
  MsgKind kind = MsgKind::Elements;
  std::vector<Element> elements;
  std::size_t next_retry_round = 0;
  unsigned attempts = 0;
};

struct Node {
  Store shard;
  // The stage policy's match sites over `shard`: their anchor memos key on
  // (id, stamp), which a new Store reuses, so they belong to this one store
  // (see Simulation::reset_shard) and freeze with it through a crash.
  gamma::StageMemory memory{0};
  Rng rng{0};
  // Safra state.
  bool black = false;              // received a message since last token pass
  std::int64_t message_count = 0;  // sent - received (logical messages)
  // Local activity.
  bool fired_this_round = false;
  bool answered_pull_this_round = false;  // receipt-activated send (EWD-legal)
  bool pull_pending = false;
  std::size_t quiescent_rounds = 0;
  std::uint64_t fires = 0;
  // Token in hand, waiting for passivity to forward.
  std::optional<Token> held_token;
  // Reliable-transfer state (all checkpointed with the shard, so a restart
  // resumes retries and keeps the duplicate filter).
  std::uint64_t next_seq = 0;
  std::vector<OutboxEntry> outbox;
  std::unordered_map<std::size_t, std::unordered_set<std::uint64_t>> seen;
  // Crash state: down (frozen, dropping everything) until this round; 0 = up.
  std::size_t down_until = 0;

  [[nodiscard]] bool active_this_round() const noexcept {
    return fired_this_round || answered_pull_this_round;
  }
};

class Simulation {
 public:
  Simulation(const gamma::Program& program, const Multiset& initial,
             const ClusterOptions& options)
      : program_(program),
        fields_(gamma::FieldSet::of(program)),
        options_(options),
        injector_(options.faults, options.seed),
        telemetry_(options, "distrib"),
        recording_(options, "cluster", "distrib"),
        affinity_(std::unordered_map<std::string, std::size_t>(
                      options.label_affinity.begin(),
                      options.label_affinity.end()),
                  options.nodes),
        capacity_(options.nodes + options.faults.membership.joins.size()),
        nodes_(options.nodes + options.faults.membership.joins.size()),
        state_(capacity_, NState::Inactive),
        membership_on_(options.faults.membership.any()),
        churn_rng_(options.seed ^ 0x5bd1e995c4ceb9feULL),
        reseeder_(options.seed ^ 0x2545f4914f6cdd1dULL) {
    options_.validate();
    if (program.stage_count() > 1) {
      throw ProgramError(
          "distributed execution supports single-stage programs (the global "
          "termination of one stage is exactly what Safra detects)");
    }
    for (const FaultPlan::Crash& c : options_.faults.crashes) {
      if (c.node >= capacity_) {
        throw ProgramError("FaultPlan schedules a crash of node " +
                           std::to_string(c.node) + " but the cluster has " +
                           std::to_string(capacity_) +
                           " node slot(s) (nodes + scheduled joins)");
      }
    }
    for (Node& n : nodes_) reset_shard(n, Store(fields_));
    for (std::size_t i = 0; i < options_.nodes; ++i) state_[i] = NState::Member;
    pending_joins_ = options_.faults.membership.joins;
    pending_leaves_ = options_.faults.membership.leaves;
    previously_left_.assign(capacity_, false);
    Rng seeder(options.seed);
    for (Node& n : nodes_) n.rng = seeder.split();

    // Round-trip estimate for the retry timer: send + ack, plus slack for
    // the phase boundaries and reorder jitter.
    rtt_ = 2 * options_.latency + 2 + options_.faults.reorder_jitter;
    token_timeout_ =
        options_.faults.token_timeout != 0
            ? options_.faults.token_timeout
            : 4 * capacity_ *
                      (options_.latency + options_.faults.reorder_jitter + 1) +
                  options_.faults.crash_downtime + 16;

    wal_on_ = !options_.wal_dir.empty();
    if (wal_on_) {
      std::filesystem::create_directories(options_.wal_dir);
      wal_.resize(capacity_);
    }

    if (options_.resume) {
      load_resume_state();
    } else {
      place_initial(initial);
    }
    epoch_map_ = runtime::EpochShardMap(member_list());

    if (recording_) {
      Multiset placed;
      for (Node& n : nodes_) placed.add(n.shard.to_multiset());
      recording_.begin(placed);
    }

    // The placed state is every node's first checkpoint. Holders default to
    // the R ring successors; checkpoint() recomputes them as the ring
    // changes.
    if (options_.faults.crashes_possible()) {
      replica_shard_versions_.reserve(capacity_);
      for (const Node& n : nodes_) {
        replica_shard_versions_.push_back(n.shard.version());
      }
      holders_.resize(capacity_);
      for (std::size_t i = 0; i < capacity_; ++i) {
        holders_[i] = ring_successors(i, options_.replication_factor);
      }
    }
  }

  ClusterResult run();

 private:
  // --- membership & ring helpers ---
  [[nodiscard]] std::vector<std::size_t> member_list() const {
    std::vector<std::size_t> m;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (state_[i] == NState::Member) m.push_back(i);
    }
    return m;
  }
  [[nodiscard]] std::size_t ring_size() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (state_[i] != NState::Inactive) ++n;
    }
    return n;
  }
  [[nodiscard]] std::size_t ring_next(std::size_t i) const noexcept {
    std::size_t j = (i + 1) % capacity_;
    while (state_[j] == NState::Inactive && j != i) j = (j + 1) % capacity_;
    return j;
  }
  [[nodiscard]] std::vector<std::size_t> ring_successors(
      std::size_t i, std::size_t r) const {
    std::vector<std::size_t> out;
    for (std::size_t j = ring_next(i); j != i && out.size() < r;
         j = ring_next(j)) {
      out.push_back(j);
    }
    return out;
  }

  [[nodiscard]] bool down(std::size_t i) const noexcept {
    return nodes_[i].down_until > round_;
  }

  /// Replaces a node's shard with `shard`, and its stage memory with an
  /// empty one: the old memos' (id, stamp) keys mean other elements there.
  void reset_shard(Node& n, Store shard) const {
    n.shard = std::move(shard);
    n.memory = gamma::StageMemory(program_.stages().front().size());
  }

  void place_initial(const Multiset& initial);
  void load_resume_state();
  [[nodiscard]] WalNodeState wal_state_of(std::size_t i,
                                          std::uint64_t round) const;
  void install_wal_state(std::size_t i, WalNodeState st);

  void crash_and_recover();
  void crash(std::size_t i, std::size_t downtime);
  void try_restore(std::size_t i);
  void membership();
  void join_node(std::size_t j);
  void leave_node(std::size_t l);
  void deactivate(std::size_t l);
  [[nodiscard]] bool drained(std::size_t l) const;
  [[nodiscard]] bool strands_replica(std::size_t l) const;
  void bump_epoch();
  void rebalance(const runtime::EpochShardMap& old_map);

  void send_reliable(std::size_t from, std::size_t to, MsgKind kind,
                     std::vector<Element> elements);
  void send_ack(std::size_t from, std::size_t to, std::uint64_t seq);
  void transmit(std::size_t from, std::size_t to, MsgKind kind,
                std::uint64_t seq, std::vector<Element> elements);
  void send_token(std::size_t from, std::size_t to, const Token& token);

  void deliver();
  void react();
  std::optional<Element> take_random(Node& node);
  void flush_retries(std::size_t i);
  void communicate();
  void send_pull_burst();
  void pass_tokens();
  void token_watchdog();
  void settle_in_flight();
  void checkpoint();
  void wal_roundmark();
  void wal_roundmark_manifest();

  [[nodiscard]] bool wal_live(std::size_t i) const {
    return wal_on_ && wal_[i].is_open() && state_[i] != NState::Inactive;
  }

  const gamma::Program& program_;
  const gamma::FieldSet fields_;  // what every node's shard indexes
  ClusterOptions options_;
  FaultInjector injector_;
  runtime::EngineTelemetry telemetry_;
  runtime::RunRecording recording_;
  // label -> home-node routing (a cluster node IS a shard).
  runtime::ShardMap affinity_;
  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<NState> state_;
  bool membership_on_ = false;
  Rng churn_rng_;  // random-churn target picks (own stream: see FaultInjector)
  Rng reseeder_;   // chemistry RNGs for rejoining / WAL-restored nodes
  std::vector<MembershipPlan::Event> pending_joins_;
  std::vector<MembershipPlan::Event> pending_leaves_;
  std::vector<bool> previously_left_;  // rejoin pool for random churn
  runtime::EpochShardMap epoch_map_;
  std::uint64_t epoch_ = 0;
  // Sum of departed nodes' Safra counters, added at every lap decision.
  // Kept outside the Node array so a crash of the initiator can't erase it.
  std::int64_t residual_count_ = 0;
  // Shard version at each node's last checkpoint (counts `checkpoints`).
  std::vector<std::uint64_t> replica_shard_versions_;
  // holders_[i]: the nodes that hold i's checkpoint and can serve its restart.
  std::vector<std::vector<std::size_t>> holders_;
  bool wal_on_ = false;
  std::vector<WalWriter> wal_;
  std::vector<Wire> wires_;
  std::vector<TokenMsg> token_msgs_;
  std::size_t round_ = 0;
  std::size_t rtt_ = 4;
  std::size_t token_timeout_ = 64;
  std::size_t token_idle_rounds_ = 0;
  std::uint64_t token_gen_ = 0;
  ClusterResult result_;  // the counters accumulate here during the run
  bool token_in_flight_ = false;
  bool pull_armed_ = true;
  bool verified_ = false;
  bool terminated_ = false;
};

void Simulation::place_initial(const Multiset& initial) {
  // Initial placement. Elements with a conflict-class affinity go to their
  // class's home node; the rest follow the configured policy.
  std::size_t rr = 0;
  for (const Element& e : initial) {
    std::size_t target = 0;
    if (const auto home = affinity_.home(e)) {
      target = *home;
    } else {
      switch (options_.placement) {
        case Placement::Hash: target = e.hash() % options_.nodes; break;
        case Placement::RoundRobin: target = rr++ % options_.nodes; break;
        case Placement::Single: target = 0; break;
      }
    }
    nodes_[target].shard.insert(e);
  }
  if (wal_on_) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      wal_[i].open(wal_node_path(options_.wal_dir, i), i, /*fresh=*/true);
      if (state_[i] != NState::Inactive) {
        wal_[i].snapshot(wal_state_of(i, round_));
        wal_[i].log_round(round_);
      }
    }
    wal_roundmark_manifest();
  }
}

void Simulation::load_resume_state() {
  const WalManifest m = read_manifest(options_.wal_dir);
  if (!m.valid) {
    throw ProgramError("distrib --resume: no intact manifest in " +
                       options_.wal_dir);
  }
  if (m.initial_nodes != options_.nodes || m.states.size() != capacity_) {
    throw ProgramError(
        "distrib --resume: cluster shape mismatch (the WAL was written by a "
        "run with different --nodes/--join schedules)");
  }
  round_ = m.round;
  epoch_ = m.epoch;
  token_gen_ = m.token_gen + 1;  // never reuse a generation across restarts
  for (std::size_t i = 0; i < capacity_; ++i) {
    switch (m.states[i]) {
      case 'M': state_[i] = NState::Member; break;
      case 'D': state_[i] = NState::Draining; break;
      default: state_[i] = NState::Inactive; break;
    }
    // A restored ring with a hole runs membership-aware even when the
    // resuming invocation passed no churn schedule: a draining node still
    // has to complete its leave, and the token watchdog stays on as under
    // churn.
    if (state_[i] != NState::Member) membership_on_ = true;
  }
  // Scheduled events at or before the restored round already happened.
  std::erase_if(pending_joins_, [&](const MembershipPlan::Event& e) {
    return e.round <= round_;
  });
  std::erase_if(pending_leaves_, [&](const MembershipPlan::Event& e) {
    return e.round <= round_;
  });

  // Replay every node's WAL (including Inactive slots with a log: their
  // sequence-number watermark must survive for a later rejoin).
  std::vector<WalPendingSend> pending;       // flattened, with the sender
  std::vector<std::size_t> pending_sender;
  for (std::size_t i = 0; i < capacity_; ++i) {
    WalNodeState st = replay_node_wal(wal_node_path(options_.wal_dir, i));
    if (!st.valid) {
      if (state_[i] != NState::Inactive) {
        throw ProgramError("distrib --resume: node " + std::to_string(i) +
                           " has no intact WAL in " + options_.wal_dir);
      }
      continue;
    }
    for (WalPendingSend& p : st.pending) {
      pending_sender.push_back(i);
      pending.push_back(std::move(p));
    }
    st.pending.clear();
    install_wal_state(i, std::move(st));
    ++result_.wal_replays;
  }

  // Global settlement: the simulator holds every surviving WAL at once, so
  // the drain a real cluster would run (retry until acked) collapses into
  // one pass — deliver each pending transfer its receiver has not already
  // seen, then zero the Safra counters (nothing is in flight any more).
  for (std::size_t k = 0; k < pending.size(); ++k) {
    const std::size_t from = pending_sender[k];
    WalPendingSend& p = pending[k];
    if (p.to >= capacity_) continue;
    Node& receiver = nodes_[p.to];
    if (!receiver.seen[from].insert(p.seq).second) continue;  // delivered
    if (p.kind == 1) {  // Pull
      if (state_[p.to] == NState::Member) receiver.pull_pending = true;
      continue;
    }
    if (state_[p.to] != NState::Inactive) {
      for (Element& e : p.elements) receiver.shard.insert(std::move(e));
    } else {
      // Receiver left between the sender's marker and the kill: re-route
      // to the collector (any live node converges; 0 is always a member).
      for (Element& e : p.elements) nodes_[0].shard.insert(std::move(e));
    }
  }
  for (std::size_t i = 0; i < capacity_; ++i) {
    nodes_[i].message_count = 0;
    nodes_[i].outbox.clear();
    nodes_[i].black = true;
    // Sequence watermark: a receiver may have seen sends the sender's torn
    // WAL forgot; never let the sender reuse those numbers.
    for (const auto& [from, seqs] : nodes_[i].seen) {
      if (from >= capacity_ || seqs.empty()) continue;
      const std::uint64_t top = *std::max_element(seqs.begin(), seqs.end());
      nodes_[from].next_seq = std::max(nodes_[from].next_seq, top + 1);
    }
  }

  // Reopen the logs in append mode, then compact: the settled restart state
  // becomes the new replay prefix (and records the settlement durably).
  for (std::size_t i = 0; i < capacity_; ++i) {
    const std::string path = wal_node_path(options_.wal_dir, i);
    const bool fresh = !std::filesystem::exists(path);
    wal_[i].open(path, i, fresh);
    wal_[i].compact(wal_state_of(i, round_));
  }
  wal_roundmark_manifest();
}

void Simulation::install_wal_state(std::size_t i, WalNodeState st) {
  Node n;
  reset_shard(n, Store(st.shard, fields_));
  n.next_seq = st.next_seq;
  n.message_count = st.message_count;
  n.pull_pending = st.pull_pending;
  for (auto& [from, seqs] : st.seen) {
    n.seen[from] = std::unordered_set<std::uint64_t>(seqs.begin(), seqs.end());
  }
  for (WalPendingSend& p : st.pending) {
    n.outbox.push_back(OutboxEntry{
        p.to, p.seq, p.kind == 1 ? MsgKind::Pull : MsgKind::Elements,
        std::move(p.elements), round_ + 1, 0});
  }
  n.black = true;
  n.rng = reseeder_.split();
  nodes_[i] = std::move(n);
}

ClusterResult Simulation::run() {
  runtime::StepLoop loop(options_, options_.max_rounds, "distributed run",
                         "max_rounds");
  // The simulation is single-threaded; one recorder carries a span per
  // round (arg = fires so far) so `--trace-out` shows the round cadence.
  obs::ThreadRecorder* const rec = telemetry_.recorder("distrib-sim");
  // Token starts at node 0 (the initiator is also the consolidation
  // collector, so it is the natural place to decide termination).
  nodes_[0].held_token = Token{options_.resume, 0, token_gen_};

  while (!terminated_) {
    // Cancel/deadline, then the round budget (EngineError under Throw).
    // On a cooperative stop the chemistry/stirring/token phases end, but
    // unacked in-flight transfers are settled first so the partial
    // multiset is exact (see settle_in_flight).
    if (loop.should_stop() || !loop.admit(round_)) {
      settle_in_flight();
      break;
    }
    ++round_;
    obs::Span round_span(telemetry_.sink(), rec, "round");
    const auto round_t0 = std::chrono::steady_clock::now();
    crash_and_recover();
    membership();
    deliver();
    react();
    communicate();
    pass_tokens();
    token_watchdog();
    checkpoint();
    wal_roundmark();
    std::uint64_t fires_so_far = 0;
    for (const Node& n : nodes_) fires_so_far += n.fires;
    round_span.set_arg(fires_so_far);
    if (obs::Telemetry* tel = telemetry_.sink()) {
      const auto dt = std::chrono::steady_clock::now() - round_t0;
      tel->stats().observe_hist(
          "distrib.round_us",
          std::chrono::duration<double, std::micro>(dt).count());
    }
    // One journal round per cluster round. The snapshot is the union of
    // live shards; elements on the wire reappear when delivered (the
    // delta-vs-last-kept encoding keeps replay exact regardless).
    if (recording_) {
      Multiset all;
      for (Node& n : nodes_) all.add(n.shard.to_multiset());
      recording_.round(all);
    }
  }

  ClusterResult result = std::move(result_);
  result.outcome = loop.outcome();
  result.rounds = round_;
  for (const WalWriter& w : wal_) {
    result.wal_bytes += w.bytes();
    result.wal_records += w.records();
    result.wal_compactions += w.compactions();
  }
  for (Node& n : nodes_) {
    result.fires += n.fires;
    result.fires_by_node.push_back(n.fires);
    result.final_shard_sizes.push_back(n.shard.size());
    result.final_multiset.add(n.shard.to_multiset());
  }
  if (obs::Telemetry* tel = telemetry_.sink()) {
    auto& stats = tel->stats();
    stats.count("distrib.rounds", result.rounds);
    stats.count("distrib.fires", result.fires);
    stats.count("distrib.messages", result.messages);
    stats.count("distrib.migrations", result.migrations);
    stats.count("distrib.token_laps", result.token_laps);
    stats.count("distrib.acks", result.acks);
    stats.count("distrib.retransmissions", result.retransmissions);
    stats.count("distrib.messages_lost", result.messages_lost);
    stats.count("distrib.messages_duplicated", result.messages_duplicated);
    stats.count("distrib.messages_delayed", result.messages_delayed);
    stats.count("distrib.duplicates_suppressed",
                result.duplicates_suppressed);
    stats.count("distrib.crashes", result.crashes);
    stats.count("distrib.recoveries", result.recoveries);
    stats.count("distrib.checkpoints", result.checkpoints);
    stats.count("distrib.token_regenerations", result.token_regenerations);
    stats.count("distrib.epochs", result.epochs);
    stats.count("distrib.joins", result.joins);
    stats.count("distrib.leaves", result.leaves);
    stats.count("distrib.rebalances", result.rebalances);
    stats.count("distrib.labels_moved", result.labels_moved);
    stats.count("distrib.replica_waits", result.replica_waits);
    stats.count("distrib.wal_bytes", result.wal_bytes);
    stats.count("distrib.wal_records", result.wal_records);
    stats.count("distrib.wal_compactions", result.wal_compactions);
    stats.count("distrib.wal_replays", result.wal_replays);
    for (const std::size_t s : result.final_shard_sizes) {
      stats.observe_hist("distrib.final_shard_size",
                         static_cast<double>(s));
    }
    runtime::observe_reaction_compile(tel, program_);
  }
  telemetry_.finish(result.outcome, result.metrics);
  recording_.finish(result.outcome, result.final_multiset);
  return result;
}

// --- phase 0: crashes and restarts ---
void Simulation::crash_and_recover() {
  if (!options_.faults.crashes_possible()) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (state_[i] == NState::Inactive) continue;
    if (nodes_[i].down_until != 0 && round_ >= nodes_[i].down_until) {
      try_restore(i);
    }
  }
  for (const FaultPlan::Crash& c : options_.faults.crashes) {
    if (c.round == round_ && state_[c.node] != NState::Inactive &&
        !down(c.node)) {
      crash(c.node, c.downtime);
    }
  }
  if (options_.faults.crash_rate > 0.0) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (state_[i] == NState::Inactive) continue;
      if (!down(i) && injector_.spontaneous_crash()) {
        crash(i, options_.faults.crash_downtime);
      }
    }
  }
}

void Simulation::crash(std::size_t i, std::size_t downtime) {
  ++result_.crashes;
  // The Node freezes while the node is down: deliver drops its messages and
  // acks, every later phase skips it and membership defers its leave. The
  // frozen state is its last checkpoint, which try_restore reinstates. A
  // held token dies with the crash (the watchdog regenerates it): a
  // checkpoint never carries one, since resurrecting it would forge a
  // second token of the same generation.
  nodes_[i].down_until = round_ + std::max<std::size_t>(1, downtime);
  nodes_[i].held_token.reset();
}

/// Restart: re-install durable state. Preference order — the replica
/// when any holder is up (the replica is the frozen Node: see crash()),
/// else the local WAL (holders down but the disk survives), else WAIT a
/// round and retry (replication_factor crash overlap: with more holders
/// this wait path is what disappears). Rejoin blackened: the missed lap
/// proves nothing.
void Simulation::try_restore(std::size_t i) {
  const auto can_serve = [&](std::size_t h) {
    return state_[h] != NState::Inactive && !down(h);
  };
  if (std::any_of(holders_[i].begin(), holders_[i].end(), can_serve)) {
    nodes_[i].black = true;
    nodes_[i].down_until = 0;
    ++result_.recoveries;
    return;
  }
  if (wal_on_ && wal_[i].is_open()) {
    WalNodeState st = replay_node_wal(wal_node_path(options_.wal_dir, i));
    if (st.valid) {
      install_wal_state(i, std::move(st));
      ++result_.wal_replays;
      ++result_.recoveries;
      return;
    }
  }
  // No durable copy reachable this round: stay down, try again next round.
  ++result_.replica_waits;
  nodes_[i].down_until = round_ + 1;
}

// --- phase 0.5: membership churn ---
// Scheduled joins/leaves (deferred while the target is down), random churn,
// then drain completions. Every membership change is an EPOCH change: the
// ownership map is rebuilt (rendezvous hashing — only keys won by a joiner
// or orphaned by a leaver change owner), the Safra generation is bumped so
// in-flight tokens die, and an incremental rebalance ships exactly the
// moved labels.
void Simulation::membership() {
  if (!membership_on_) return;
  std::erase_if(pending_joins_, [&](const MembershipPlan::Event& e) {
    if (e.round > round_) return false;
    if (state_[e.node] != NState::Inactive) return true;  // stale: drop
    join_node(e.node);
    return true;
  });
  std::erase_if(pending_leaves_, [&](const MembershipPlan::Event& e) {
    if (e.round > round_) return false;
    if (state_[e.node] != NState::Member) {
      // Already draining/left (or never joined): nothing to start.
      return state_[e.node] != NState::Inactive || previously_left_[e.node];
    }
    if (down(e.node)) return false;  // defer until the node is back up
    leave_node(e.node);
    return true;
  });
  if (injector_.spontaneous_churn()) {
    std::vector<std::size_t> rejoinable;
    std::vector<std::size_t> leavable;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (state_[i] == NState::Inactive && previously_left_[i]) {
        rejoinable.push_back(i);
      }
      if (i != 0 && state_[i] == NState::Member && !down(i)) {
        leavable.push_back(i);
      }
    }
    const bool can_join = !rejoinable.empty();
    const bool can_leave = !leavable.empty();
    if (can_join && (!can_leave || churn_rng_.coin(0.5))) {
      join_node(rejoinable[churn_rng_.bounded(rejoinable.size())]);
    } else if (can_leave) {
      leave_node(leavable[churn_rng_.bounded(leavable.size())]);
    }
  }
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (state_[i] == NState::Draining && !down(i) && drained(i)) {
      deactivate(i);
    }
  }
}

void Simulation::join_node(std::size_t j) {
  const runtime::EpochShardMap old_map = epoch_map_;
  state_[j] = NState::Member;
  nodes_[j].quiescent_rounds = 0;
  ++result_.joins;
  bump_epoch();
  rebalance(old_map);
}

void Simulation::leave_node(std::size_t l) {
  const runtime::EpochShardMap old_map = epoch_map_;
  state_[l] = NState::Draining;
  // A pull it has not answered yet is moot: its whole shard leaves anyway.
  if (nodes_[l].pull_pending) {
    nodes_[l].pull_pending = false;
    if (wal_live(l)) wal_[l].log_pull_answered();
  }
  bump_epoch();
  rebalance(old_map);
}

/// A draining node may deactivate only when NOTHING in the cluster still
/// targets it: its shard and outbox are empty, no wire or token is on its
/// way to it, and no node (live, or frozen mid-crash — the frozen outbox is
/// exactly what a restart will retry) holds an unacked transfer to it.
/// Re-routing an unacked transfer instead would risk double delivery when
/// only the ack was lost; waiting for the ack is the safe drain.
bool Simulation::drained(std::size_t l) const {
  const Node& n = nodes_[l];
  if (n.shard.size() != 0 || !n.outbox.empty() || n.held_token) return false;
  for (const Wire& w : wires_) {
    if (w.to == l) return false;
  }
  for (const TokenMsg& t : token_msgs_) {
    if (t.to == l) return false;
  }
  for (std::size_t j = 0; j < capacity_; ++j) {
    if (j == l) continue;
    for (const OutboxEntry& e : nodes_[j].outbox) {
      if (e.to == l) return false;
    }
  }
  return !strands_replica(l);
}

/// True when deactivating leaver `l` would strand a replica: some ring node
/// would be left with no checkpoint holder at all (the ring is down to that
/// node), or a DOWN node that restores from l's copy would be left with no
/// up holder to serve it. Checkpoints skip down primaries and a lone node
/// has no successor, so nothing would ever refill that holder set and the
/// node's next restart would wait for a replica forever. The leaver stays
/// (draining, owning no labels) until the hand-off can land.
bool Simulation::strands_replica(std::size_t l) const {
  if (holders_.empty()) return false;
  const auto can_serve = [&](std::size_t h) {
    return h != l && state_[h] != NState::Inactive && !down(h);
  };
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (i == l || state_[i] == NState::Inactive) continue;
    const std::vector<std::size_t>& hs = holders_[i];
    if (std::find(hs.begin(), hs.end(), l) == hs.end()) continue;
    // The holder set deactivate() would leave behind: the other holders,
    // or the ring successors when l was the only one.
    std::vector<std::size_t> after;
    for (const std::size_t h : hs) {
      if (h != l) after.push_back(h);
    }
    if (after.empty()) {
      for (std::size_t j = ring_next(i);
           j != i && after.size() < options_.replication_factor;
           j = ring_next(j)) {
        if (j != l) after.push_back(j);
      }
    }
    if (after.empty()) return true;
    if (down(i) && std::none_of(after.begin(), after.end(), can_serve)) {
      return true;
    }
  }
  return false;
}

void Simulation::deactivate(std::size_t l) {
  // Fold the leaver's Safra counter into the RESIDUAL the initiator adds at
  // every lap decision: the ring sum stays equal to the number of in-flight
  // logical messages, so termination detection survives the ring shrinking.
  // The residual deliberately lives outside any Node — folding it into node
  // 0's counter would silently vanish if node 0 happened to be CRASHED at
  // this moment (a down node is frozen at its last checkpoint, and the
  // restart reinstates that checkpoint, which no fold reached), leaving the
  // global sum off by the fold forever: no lap could ever be clean again. (In a real deployment this is the one counter the
  // initiator must persist outside its volatile state; the epoch bump below
  // already blackens the interrupted lap, which is what makes moving the
  // count sound.)
  residual_count_ += nodes_[l].message_count;
  const std::uint64_t keep_seq = nodes_[l].next_seq;
  const std::uint64_t keep_fires = nodes_[l].fires;
  nodes_[l] = Node{};
  reset_shard(nodes_[l], Store(fields_));
  nodes_[l].next_seq = keep_seq;  // receivers keep their seen-sets; a rejoin
                                  // must not reuse acknowledged numbers
  nodes_[l].fires = keep_fires;
  nodes_[l].rng = reseeder_.split();
  state_[l] = NState::Inactive;
  previously_left_[l] = true;
  ++result_.leaves;
  if (!holders_.empty()) {
    // Re-replication: before the process exits, the leaver streams every
    // replica it holds to the shrunken ring's successors (it is up — a
    // graceful leave — so it can). Without this hand-off a node that is
    // DOWN right now could lose its only holder forever: checkpoint()
    // skips down nodes, so nothing would ever refill holders_[i] and
    // try_restore would wait for eternity.
    for (std::size_t i = 0; i < capacity_; ++i) {
      std::erase(holders_[i], l);
      if (i != l && state_[i] != NState::Inactive && holders_[i].empty()) {
        holders_[i] = ring_successors(i, options_.replication_factor);
      }
    }
    holders_[l].clear();
  }
  if (wal_on_ && wal_[l].is_open()) {
    // Final compaction: an empty state that preserves the sequence
    // watermark, so a rejoin replays a clean prefix.
    wal_[l].compact(wal_state_of(l, round_));
  }
  bump_epoch();  // ring membership changed: tokens to the leaver must die
}

void Simulation::bump_epoch() {
  ++epoch_;
  ++result_.epochs;
  epoch_map_ = runtime::EpochShardMap(member_list());
  ++token_gen_;
  token_in_flight_ = false;
  token_idle_rounds_ = 0;
  verified_ = false;
  // Fresh BLACK token at the initiator: the interrupted lap proves nothing.
  // If the initiator is down the churn-aware watchdog regenerates later.
  if (!down(0)) nodes_[0].held_token = Token{true, 0, token_gen_};
}

/// Incremental rebalance after an epoch change: each ring node scans its
/// shard and ships ONLY the elements whose owner changed between the maps
/// (a draining node ships everything — it has no owner any more), using the
/// same acked, sequence-numbered transport as stirring. Elements that
/// merely diffused away from their unchanged owner stay put: the chemistry
/// owns those. Senders blacken (a passive node sending violates EWD998's
/// premise otherwise).
void Simulation::rebalance(const runtime::EpochShardMap& old_map) {
  ++result_.rebalances;
  if (epoch_map_.members().empty()) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (state_[i] == NState::Inactive || down(i)) continue;
    Node& node = nodes_[i];
    if (node.shard.size() == 0) continue;
    const bool leaving = state_[i] == NState::Draining;
    std::map<std::size_t, std::vector<Element>> moves;
    for (Store::Id id = 0; id < node.shard.slots(); ++id) {
      if (!node.shard.alive(id)) continue;
      Element e = node.shard.element(id);
      const std::size_t owner = epoch_map_.owner(e);
      if (owner != i && (leaving || old_map.owner(e) != owner)) {
        node.shard.remove(id);
        moves[owner].push_back(std::move(e));
      }
    }
    if (moves.empty()) continue;
    node.black = true;
    for (auto& [to, elems] : moves) {
      result_.labels_moved += elems.size();
      send_reliable(i, to, MsgKind::Elements, std::move(elems));
    }
  }
}

WalNodeState Simulation::wal_state_of(std::size_t i,
                                      std::uint64_t round) const {
  const Node& n = nodes_[i];
  WalNodeState st;
  st.valid = true;
  st.node = i;
  st.round = round;
  st.epoch = epoch_;
  st.message_count = n.message_count;
  st.next_seq = n.next_seq;
  st.pull_pending = n.pull_pending;
  st.shard = n.shard.to_multiset();
  for (const auto& [from, seqs] : n.seen) {
    st.seen[from] = std::set<std::uint64_t>(seqs.begin(), seqs.end());
  }
  for (const OutboxEntry& e : n.outbox) {
    st.pending.push_back(WalPendingSend{
        e.to, e.seq, e.kind == MsgKind::Pull ? 1 : 0, e.elements});
  }
  return st;
}

// --- the simulated (faulty) network ---

/// Starts a LOGICAL transfer: sequence-numbered, Safra-counted once, kept
/// in the outbox until acked, retried with exponential backoff. With a WAL
/// the send record hits disk before the first copy hits the wire.
void Simulation::send_reliable(std::size_t from, std::size_t to,
                               MsgKind kind, std::vector<Element> elements) {
  if (to == from) return;
  if (kind == MsgKind::Elements && elements.empty()) return;
  Node& sender = nodes_[from];
  const std::uint64_t seq = sender.next_seq++;
  ++sender.message_count;
  if (kind == MsgKind::Elements) result_.migrations += elements.size();
  if (wal_live(from)) {
    wal_[from].log_send(to, seq, kind == MsgKind::Pull ? 1 : 0, elements);
  }
  transmit(from, to, kind, seq, elements);
  sender.outbox.push_back(OutboxEntry{to, seq, kind, std::move(elements),
                                      round_ + rtt_, 0});
}

void Simulation::send_ack(std::size_t from, std::size_t to,
                          std::uint64_t seq) {
  ++result_.acks;
  transmit(from, to, MsgKind::Ack, seq, {});
}

/// One physical copy through the injector: partition/loss eat it,
/// reordering delays it, duplication enqueues a second copy.
void Simulation::transmit(std::size_t from, std::size_t to, MsgKind kind,
                          std::uint64_t seq, std::vector<Element> elements) {
  ++result_.messages;
  if (injector_.severed(from, to, round_) || injector_.lose()) {
    ++result_.messages_lost;
    return;
  }
  std::size_t jitter = injector_.jitter();
  if (jitter > 0) ++result_.messages_delayed;
  const bool duplicate = injector_.duplicate();
  if (duplicate) {
    ++result_.messages_duplicated;
    ++result_.messages;
    wires_.push_back(Wire{from, to,
                          round_ + options_.latency + 1 + injector_.jitter(),
                          kind, seq, elements});
  }
  wires_.push_back(Wire{from, to, round_ + options_.latency + jitter, kind,
                        seq, std::move(elements)});
}

void Simulation::send_token(std::size_t from, std::size_t to,
                            const Token& token) {
  if (to == from) {  // degenerate 1-node ring: no network to cross
    nodes_[to].held_token = token;
    return;
  }
  // The token is control traffic: it can be lost or delayed (and then
  // regenerated by the watchdog), but the network never forges copies —
  // duplication is what the generation stamp guards against.
  if (injector_.severed(from, to, round_) || injector_.lose()) {
    ++result_.messages_lost;
    return;
  }
  std::size_t jitter = injector_.jitter();
  if (jitter > 0) ++result_.messages_delayed;
  token_msgs_.push_back(
      TokenMsg{to, round_ + options_.latency + jitter, token});
}

// --- phase 1: deliver messages due this round ---
void Simulation::deliver() {
  // Acks raised while sweeping the wire list are staged and sent after
  // the sweep: transmit() appends to wires_, which must not be mutated
  // mid-erase_if.
  struct PendingAck {
    std::size_t from, to;
    std::uint64_t seq;
  };
  std::vector<PendingAck> pending_acks;
  const auto ack = [&](std::size_t from, std::size_t to, std::uint64_t seq) {
    pending_acks.push_back(PendingAck{from, to, seq});
  };
  std::erase_if(wires_, [&](Wire& m) {
    if (m.arrival_round > round_) return false;
    if (state_[m.to] == NState::Inactive || down(m.to)) {
      // A dead process reads nothing off the wire; a departed node's
      // address is void (only late duplicate copies can land here — the
      // drain protocol waits for every unacked transfer before leaving).
      ++result_.messages_lost;
      return true;
    }
    Node& node = nodes_[m.to];
    switch (m.kind) {
      case MsgKind::Elements: {
        node.black = true;  // Safra: receipt may reactivate; blacken
        if (!node.seen[m.from].insert(m.seq).second) {
          // Duplicate (network copy or retransmission): suppress so the
          // message counters stay balanced, but re-ack — the original
          // ack may be the thing that got lost.
          ++result_.duplicates_suppressed;
          ack(m.to, m.from, m.seq);
          return true;
        }
        // WAL before ack: once the ack closes the sender's retry loop the
        // receipt must already be durable.
        if (wal_live(m.to)) wal_[m.to].log_recv(m.from, m.seq, m.elements);
        for (Element& e : m.elements) node.shard.insert(std::move(e));
        --node.message_count;
        node.quiescent_rounds = 0;
        if (m.to == 0) verified_ = false;  // new material voids verification
        ack(m.to, m.from, m.seq);
        return true;
      }
      case MsgKind::Pull: {
        node.black = true;
        if (!node.seen[m.from].insert(m.seq).second) {
          ++result_.duplicates_suppressed;
        } else {
          if (wal_live(m.to)) wal_[m.to].log_pull(m.from, m.seq);
          --node.message_count;
          node.pull_pending = true;
        }
        ack(m.to, m.from, m.seq);
        return true;
      }
      case MsgKind::Ack: {
        // Control traffic: closes the retry loop, no Safra effect.
        auto it = std::find_if(
            node.outbox.begin(), node.outbox.end(),
            [&](const OutboxEntry& e) { return e.seq == m.seq; });
        if (it != node.outbox.end()) {
          if (wal_live(m.to)) wal_[m.to].log_ackd(m.seq);
          node.outbox.erase(it);
        }
        return true;
      }
    }
    return true;
  });
  for (const PendingAck& a : pending_acks) send_ack(a.from, a.to, a.seq);
  std::erase_if(token_msgs_, [&](TokenMsg& m) {
    if (m.arrival_round > round_) return false;
    if (state_[m.to] == NState::Inactive || down(m.to)) return true;
    if (m.token.gen != token_gen_) return true;  // stale generation
    nodes_[m.to].held_token = m.token;
    if (m.to == 0) token_idle_rounds_ = 0;
    return true;
  });
}

// --- phase 2: local chemistry (Members only; Draining nodes only drain) ---

/// A node's gate for one round of the stage policy: the call ends after
/// `budget` fires, and with a WAL each fire is logged before its commit.
struct RoundGate {
  std::size_t budget;
  WalWriter* wal;                     // null without a WAL
  const runtime::RecordCtx* journal;  // null when not recording
  std::size_t fires = 0;

  [[nodiscard]] bool running() const noexcept { return fires < budget; }
  [[nodiscard]] bool should_stop() const noexcept { return !running(); }
  [[nodiscard]] bool admit(const Store& store, const gamma::Match& match) {
    if (wal != nullptr) {
      std::vector<Element> consumed;
      consumed.reserve(match.ids.size());
      for (const Store::Id id : match.ids) {
        consumed.push_back(store.element(id));
      }
      wal->log_fire(consumed, match.produced(store));
    }
    ++fires;
    return true;
  }
  [[nodiscard]] const runtime::RecordCtx* record() const noexcept {
    return journal;
  }
  void pass_done(const Store& /*store*/, std::uint64_t /*fires*/) const {}
};

void Simulation::react() {
  const auto& stage = program_.stages().front();
  // No stage telemetry: the cluster reports its own distrib.* metrics and
  // one span per round.
  const gamma::StageObs no_obs(nullptr, nullptr, stage);
  for (std::size_t i = 0; i < capacity_; ++i) {
    Node& node = nodes_[i];
    node.fired_this_round = false;
    node.answered_pull_this_round = false;
    if (state_[i] != NState::Member || down(i)) {
      if (state_[i] != NState::Inactive && !down(i)) ++node.quiescent_rounds;
      continue;
    }
    const runtime::RecordCtx rctx =
        recording_.ctx(-1, -1, static_cast<std::int64_t>(i));
    RoundGate gate{options_.fires_per_round,
                   wal_live(i) ? &wal_[i] : nullptr,
                   recording_ ? &rctx : nullptr};
    gamma::run_stage_fixpoint(node.shard, stage, node.rng, node.memory,
                              no_obs, gate);
    node.fires += gate.fires;
    node.fired_this_round = gate.fires > 0;
    if (node.fired_this_round) {
      node.quiescent_rounds = 0;
    } else {
      ++node.quiescent_rounds;
    }
  }
  if (nodes_[0].fired_this_round) verified_ = false;
}

/// Picks and removes one random live element from a shard: the k-th live
/// id in slot order, k drawn uniformly.
std::optional<Element> Simulation::take_random(Node& node) {
  if (node.shard.size() == 0) return std::nullopt;
  const Store::Id id =
      node.shard.nth_live(node.rng.bounded(node.shard.size()));
  Element chosen = node.shard.element(id);
  node.shard.remove(id);
  return chosen;
}

/// Re-sends overdue unacked transfers. A retransmission may race the
/// token (the sender can be passive), so it blackens the sender — the
/// same conservative rule EWD998 uses for restarts.
void Simulation::flush_retries(std::size_t i) {
  Node& node = nodes_[i];
  for (OutboxEntry& e : node.outbox) {
    if (e.next_retry_round > round_) continue;
    ++result_.retransmissions;
    node.black = true;
    transmit(i, e.to, e.kind, e.seq, e.elements);
    ++e.attempts;
    e.next_retry_round =
        round_ + (rtt_ << std::min(e.attempts, 6u));  // exponential backoff
  }
}

// --- phase 3: stirring, draining and consolidation ---
//
// Every message here respects EWD998's premise so Safra stays sound:
//   * stirring sends come from machines that fired this round (active);
//   * a draining node's forwards are receipt-activated (it only holds
//     elements that just arrived — its own shard left at leave time);
//   * consolidation is PULL-based: node 0 requests shards (its own counter
//     is live at the termination decision, so its in-flight requests
//     always show up as q + c_0 != 0), and responders send while
//     activated by the request's receipt.
// A passive node pushing its shard spontaneously would violate the
// premise: its +1 could be snapshotted away and the initiator could
// declare a clean lap with the shard still in flight (elements lost).
// Retransmissions DO come from passive machines — that is why they
// blacken the sender (see flush_retries).
void Simulation::communicate() {
  if (capacity_ == 1) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    Node& node = nodes_[i];
    if (state_[i] == NState::Inactive || down(i)) continue;
    flush_retries(i);
    if (state_[i] == NState::Draining) {
      // Forward anything that landed here since the last round to its
      // owner under the current epoch (receipt-activated, so EWD-legal).
      if (node.shard.size() > 0) {
        std::map<std::size_t, std::vector<Element>> moves;
        for (const Element& e : node.shard.to_multiset()) {
          moves[epoch_map_.owner(e)].push_back(e);
        }
        reset_shard(node, Store(fields_));
        node.answered_pull_this_round = true;
        for (auto& [to, elems] : moves) {
          send_reliable(i, to, MsgKind::Elements, std::move(elems));
        }
      }
      continue;
    }
    if (node.pull_pending) {
      node.pull_pending = false;
      if (wal_live(i)) wal_[i].log_pull_answered();
      if (i != 0 && node.shard.size() > 0) {
        std::vector<Element> all = node.shard.to_multiset().elements();
        reset_shard(node, Store(fields_));
        node.answered_pull_this_round = true;  // receipt-activated
        send_reliable(i, 0, MsgKind::Elements, std::move(all));
      }
      continue;  // answering a pull supersedes stirring this round
    }
    if (node.fired_this_round) {
      // Active node: diffuse a few random elements (stir the solution).
      // With a label-affinity hint, stirring turns directed: a stray
      // element is routed to its class's home node (where its reaction
      // partners live), and an element already home stays put. Peers are
      // drawn uniformly from the OTHER nodes of the CURRENT member set
      // (with no churn, every node), and an affinity home that left
      // re-routes to the epoch owner. Sends still come only from active
      // nodes, so EWD998's premise holds.
      for (std::size_t k = 0; k < options_.migrations_per_round; ++k) {
        if (node.shard.size() <= 1) break;
        auto e = take_random(node);
        if (!e) break;
        std::size_t peer = 0;
        auto home = affinity_.home(*e);
        if (home && state_[*home] != NState::Member) {
          home = epoch_map_.owner(*e);  // class home left the ring
        }
        if (home && *home != i) {
          peer = *home;
        } else if (home) {
          node.shard.insert(std::move(*e));  // already co-located: keep
          continue;
        } else {
          const auto& mem = epoch_map_.members();
          if (mem.size() <= 1) {
            node.shard.insert(std::move(*e));
            break;
          }
          std::size_t self = 0;
          while (self < mem.size() && mem[self] != i) ++self;
          std::size_t idx = node.rng.bounded(mem.size() - 1);
          if (self < mem.size() && idx >= self) ++idx;
          peer = mem[idx];
        }
        send_reliable(i, peer, MsgKind::Elements, {std::move(*e)});
      }
    }
  }
  // Collector: when node 0 has been quiet for a while, pull the other
  // shards in so any still-enabled cross-node match can assemble. The
  // pull is ARMED by collector activity (firing or receiving) and fires
  // once per quiescence episode — pulling on a timer forever would keep
  // blackening Safra laps and livelock the detection.
  if (down(0)) return;
  Node& collector = nodes_[0];
  if (collector.active_this_round() ||
      collector.quiescent_rounds == 0 /* received this round */) {
    pull_armed_ = true;
  }
  if (pull_armed_ && !collector.active_this_round() &&
      collector.quiescent_rounds >= options_.consolidate_after) {
    pull_armed_ = false;
    send_pull_burst();
  }
}

void Simulation::send_pull_burst() {
  for (std::size_t peer = 1; peer < capacity_; ++peer) {
    if (state_[peer] != NState::Member) continue;  // draining self-empties
    send_reliable(0, peer, MsgKind::Pull, {});
  }
}

// --- phase 4: Safra's termination detection ---
void Simulation::pass_tokens() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    Node& node = nodes_[i];
    if (state_[i] == NState::Inactive) continue;  // not in the ring
    if (down(i)) continue;                        // a dead node forwards nothing
    if (node.held_token && node.held_token->gen != token_gen_) {
      node.held_token.reset();  // superseded by a regenerated token
    }
    if (!node.held_token) continue;
    // Hold the token while locally active; forward when passive.
    if (node.active_this_round()) continue;

    Token token = *node.held_token;
    if (i == 0 && token_in_flight_) {
      // Lap completed back at the initiator: decide or start a new lap.
      token_in_flight_ = false;
      ++result_.token_laps;
      const bool clean = !token.black && !node.black &&
                         token.count + node.message_count + residual_count_ == 0;
      if (clean && !node.active_this_round()) {
        // A clean lap proves no computation and no messages — but not
        // that remote shards are empty of jointly-enabled matches. Before
        // declaring, run one VERIFICATION pull: gather every shard at the
        // collector. If the silence survives the pull (nothing arrived,
        // next clean lap), the fixed point is global. Any arrival resets
        // verification (deliver() zeroes quiescent_rounds, and
        // communicate() re-arms the periodic pull).
        if (!verified_ && ring_size() > 1) {
          verified_ = true;
          send_pull_burst();
        } else {
          terminated_ = true;
          return;
        }
      }
      token = Token{false, 0, token_gen_};  // fresh white lap
      node.black = false;
      // fall through to forward the fresh token
    }
    // Forward to the ring successor (the next non-Inactive slot — Draining
    // nodes stay in the ring so their residual counters keep being summed).
    if (i != 0) {
      token.count += node.message_count;
      if (node.black) token.black = true;
      node.black = false;
    }
    node.held_token.reset();
    token_in_flight_ = true;
    if (i == 0) token_idle_rounds_ = 0;
    send_token(i, ring_next(i), token);
  }
}

/// Token-loss recovery: the initiator counts rounds without the token in
/// hand; past the timeout it declares the token eaten (crash, loss, a
/// severed ring, or an epoch bump that killed the old generation while the
/// replacement got lost) and issues a BLACK replacement under a new
/// generation — black because the lap it replaces proves nothing, a new
/// generation so a late-surfacing old token is discarded instead of
/// double-counted.
void Simulation::token_watchdog() {
  // Only an active fault plan or membership churn can eat a token; with a
  // perfect static network the watchdog would just add spurious
  // regenerations during long laps.
  if (terminated_ || capacity_ == 1 ||
      (!options_.faults.any() && !membership_on_)) {
    return;
  }
  Node& initiator = nodes_[0];
  const bool holds_current =
      initiator.held_token && initiator.held_token->gen == token_gen_;
  if (holds_current || down(0)) {
    token_idle_rounds_ = 0;
    return;
  }
  if (++token_idle_rounds_ <= token_timeout_) return;
  token_idle_rounds_ = 0;
  ++token_gen_;
  ++result_.token_regenerations;
  initiator.held_token = Token{true, 0, token_gen_};
  token_in_flight_ = false;
}

/// Early-stop settlement: every LOGICAL element transfer that is still
/// unacked lives in some sender's outbox (the payload is kept until the
/// ack lands), and the receiver's `seen` filter says whether it was
/// already delivered. The simulator has global knowledge, so the drain a
/// real deployment would run (retry until acked) collapses into one
/// deterministic pass: deliver each undelivered payload straight into the
/// receiver's shard, drop the rest. No element is lost on the wire and
/// none is double-counted, making the partial multiset exact. A receiver
/// that deactivated mid-flight (impossible for graceful leaves — drained()
/// waits for every targeting outbox — but cheap to guard) re-routes to the
/// collector.
void Simulation::settle_in_flight() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    for (OutboxEntry& e : nodes_[i].outbox) {
      if (e.kind != MsgKind::Elements) continue;  // Pull: control only
      Node& receiver = nodes_[e.to];
      if (!receiver.seen[i].insert(e.seq).second) continue;  // delivered
      Node& sink = state_[e.to] == NState::Inactive ? nodes_[0] : receiver;
      for (Element& el : e.elements) sink.shard.insert(std::move(el));
    }
    nodes_[i].outbox.clear();
  }
  wires_.clear();
  token_msgs_.clear();
}

// --- phase 5: replication ---
// Primary-backup: every round each up node ships its end-of-round state to
// its up-to-R live ring successors (holders_), so a replica is never behind
// the state a crash destroys — the property that makes replica-only
// recovery exact. A crash freezes exactly that state (see crash()), so the
// simulator keeps no second copy: the frozen Node is the replica, and
// holders_ models only who can serve it.
void Simulation::checkpoint() {
  if (!options_.faults.crashes_possible() || terminated_) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (state_[i] == NState::Inactive) continue;
    if (down(i)) continue;  // frozen state was checkpointed pre-crash
    // Holders are the R ring successors as of this checkpoint. The replica
    // refreshes whenever the PRIMARY is up — a holder that is down while
    // the primary streams catches up before serving (anti-entropy on
    // restart), so the copy is never staler than the primary's last
    // checkpoint; what a down holder cannot do is SERVE a restore, which is
    // what try_restore's up-holder check (and replica_waits) models.
    holders_[i] = ring_successors(i, options_.replication_factor);
    if (nodes_[i].shard.version() != replica_shard_versions_[i]) {
      replica_shard_versions_[i] = nodes_[i].shard.version();
      ++result_.checkpoints;
    }
  }
}

// --- phase 6: durability ---
// End-of-round WAL marker + flush for every live node (write-ahead holds:
// everything this round acked is already logged), a compacting snapshot
// rewrite every wal_snapshot_every rounds, and an atomic manifest rewrite
// pinning the cluster-wide restart point.
void Simulation::wal_roundmark() {
  if (!wal_on_) return;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (!wal_live(i) || down(i)) continue;
    if (round_ % options_.wal_snapshot_every == 0) {
      wal_[i].compact(wal_state_of(i, round_));
    } else {
      wal_[i].log_round(round_);
    }
  }
  wal_roundmark_manifest();
}

void Simulation::wal_roundmark_manifest() {
  WalManifest m;
  m.valid = true;
  m.round = round_;
  m.epoch = epoch_;
  m.token_gen = token_gen_;
  m.initial_nodes = options_.nodes;
  m.states.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    m.states.push_back(state_[i] == NState::Member     ? 'M'
                       : state_[i] == NState::Draining ? 'D'
                                                       : 'I');
  }
  write_manifest(options_.wal_dir, m);
}

}  // namespace

ClusterResult run_distributed(const gamma::Program& program,
                              const Multiset& initial,
                              const ClusterOptions& options) {
  Simulation sim(program, initial, options);
  return sim.run();
}

}  // namespace gammaflow::distrib
