// ParallelEngine: PEs as worker threads. Nodes are hash-partitioned across
// workers (node id mod W), so a node's matching store is owned by exactly one
// thread and needs no locking; tokens cross PEs through MPSC inboxes. This
// mirrors how dataflow runtimes virtualize PEs on multicores (§II-A of the
// paper: each core runs the firing rule for its nodes).
//
// Termination: an atomic in-flight counter (runtime::InFlight) covers every
// token that is queued or being absorbed. When it reaches zero, no token can
// ever be produced again (all stores are stable), which is the dataflow
// quiescence condition. Stop propagation is a runtime::StopFlag; deadlines,
// the firing budget, and the telemetry tail come from the same runtime core
// the Gamma engines use. An error in a worker (a failing fire, a duplicate
// operand, the budget under LimitPolicy::Throw) stops the run; the first one
// is rethrown after the join.
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "gammaflow/common/logging.hpp"
#include "gammaflow/common/mpsc_queue.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/match_store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::dataflow {
namespace {

/// Sample the inbox depth histogram once per this many absorbed tokens
/// (MpscQueue::size takes the queue lock, so keep sampling sparse).
constexpr std::uint64_t kInboxSampleInterval = 256;

struct Routed {
  NodeId node;
  PortId port;
  Token token;
};

struct WorkerState {
  MpscQueue<Routed> inbox;
  // Matching store; only the tables of owned nodes are ever used.
  MatchStore waiting;
  // Worker-local results, merged after join.
  std::map<std::string, std::vector<std::pair<Tag, Value>>> outputs;
  std::vector<std::uint64_t> fires_by_node;
  // Worker-local telemetry, flushed into the registry after join.
  std::array<std::uint64_t, 7> fires_by_kind{};
  std::uint64_t steer_true = 0;
  std::uint64_t steer_false = 0;
  std::uint64_t absorbed = 0;
};

class ParallelRun {
 public:
  ParallelRun(const Graph& graph, const DfRunOptions& options)
      : graph_(graph),
        options_(options),
        worker_count_(std::max(1u, options.workers)),
        workers_(worker_count_),
        loop_(options, options.max_fires, "parallel dataflow engine",
              "max_fires"),
        telemetry_(options, "df") {
    for (auto& w : workers_) {
      w.fires_by_node.assign(graph.node_count(), 0);
      w.waiting = MatchStore(graph);
    }
    if ((jrec_ = options.record) != nullptr) {
      jrec_->begin("parallel", "dataflow", {});
    }
    if ((tel_ = telemetry_.sink()) != nullptr) {
      inbox_hist_ = &tel_->stats().hist("df.inbox_depth");
      tag_hist_ = &tel_->stats().hist("df.inctag_depth");
    }
  }

  DfRunResult run() {
    GF_DEBUG << "dataflow parallel run: " << worker_count_ << " PE(s), "
             << graph_.node_count() << " nodes";

    // Seed: const emissions, routed before workers start.
    for (const NodeId root : graph_.roots()) {
      const Firing f = fire_node(graph_.node(root), {}, 0);
      ++workers_[owner(root)].fires_by_node[root];
      if (tel_ != nullptr) {
        ++workers_[owner(root)].fires_by_kind[static_cast<std::size_t>(
            graph_.node(root).kind)];
      }
      total_fires_.fetch_add(1, std::memory_order_relaxed);
      if (jrec_ != nullptr) {
        obs::FireRecord fr;
        fr.reaction = journal_node_label(graph_, root);
        fr.produced = emission_strs(root, f);
        jrec_->fire(std::move(fr));
      }
      route_emission(root, f);
    }

    std::vector<std::thread> threads;
    threads.reserve(worker_count_);
    for (unsigned w = 0; w < worker_count_; ++w) {
      threads.emplace_back([this, w] { worker_loop(w); });
    }
    for (auto& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);

    DfRunResult result;
    result.outcome = stop_.outcome();
    result.fires = total_fires_.load();
    result.fires_by_node.assign(graph_.node_count(), 0);
    if (tel_ != nullptr) {
      auto& stats = tel_->stats();
      std::array<std::uint64_t, 7> by_kind{};
      std::uint64_t steer_true = 0;
      std::uint64_t steer_false = 0;
      std::uint64_t absorbed = 0;
      for (const WorkerState& w : workers_) {
        for (std::size_t k = 0; k < by_kind.size(); ++k) {
          by_kind[k] += w.fires_by_kind[k];
        }
        steer_true += w.steer_true;
        steer_false += w.steer_false;
        absorbed += w.absorbed;
      }
      for (std::size_t k = 0; k < by_kind.size(); ++k) {
        if (by_kind[k] > 0) {
          stats.count(std::string("df.fires.") +
                          to_string(static_cast<NodeKind>(k)),
                      by_kind[k]);
        }
      }
      stats.count("df.fires", result.fires);
      stats.count("df.steer_true", steer_true);
      stats.count("df.steer_false", steer_false);
      stats.count("df.tokens_absorbed", absorbed);
    }
    telemetry_.finish(result.outcome, result.metrics);
    for (WorkerState& w : workers_) {
      for (NodeId n = 0; n < graph_.node_count(); ++n) {
        result.fires_by_node[n] += w.fires_by_node[n];
      }
      // On a cooperative stop, tokens still queued in the inbox are part of
      // the machine state: surface them as leftovers (post-join, so the
      // queue has no concurrent producers anymore).
      while (auto routed = w.inbox.try_pop()) {
        result.leftovers.push_back(PendingOperand{routed->node, routed->port,
                                                  routed->token.tag,
                                                  std::move(routed->token.value)});
      }
      for (const auto& [name, tokens] : w.outputs) {
        auto& dst = result.outputs[name];
        dst.insert(dst.end(), tokens.begin(), tokens.end());
      }
      w.waiting.append_to(result.leftovers);
    }
    sort_leftovers(result.leftovers);
    if (jrec_ != nullptr) {
      // The final store: captured outputs plus every parked leftover token
      // (assembled post-join, so no concurrent mutators).
      jrec_->finish(to_string(result.outcome),
                    journal_store(graph_, result.outputs, result.leftovers));
    }
    result.wall_seconds = loop_.wall_seconds();
    GF_DEBUG << "dataflow parallel run done: " << result.fires << " firings, "
             << result.wall_seconds << "s";
    return result;
  }

 private:
  [[nodiscard]] unsigned owner(NodeId node) const noexcept {
    return static_cast<unsigned>(node % worker_count_);
  }

  void send(NodeId node, PortId port, Token token) {
    in_flight_.add();
    workers_[owner(node)].inbox.push(Routed{node, port, std::move(token)});
  }

  void route_emission(NodeId node, const Firing& firing) {
    if (!firing.emits) return;
    for (const EdgeId eid : graph_.out_edges(node, firing.port)) {
      const Edge& e = graph_.edge(eid);
      send(e.dst, e.dst_port, Token{firing.value, firing.tag});
    }
  }

  /// Journal strings for the tokens route_emission() is about to send.
  /// Callers journal the fire BEFORE routing: once a token is sent, another
  /// PE may consume it and journal that fire, and replay needs the producer
  /// first.
  [[nodiscard]] std::vector<std::string> emission_strs(
      NodeId node, const Firing& firing) const {
    std::vector<std::string> produced;
    if (!firing.emits) return produced;
    for (const EdgeId eid : graph_.out_edges(node, firing.port)) {
      const Edge& e = graph_.edge(eid);
      produced.push_back(journal_token_str(graph_, e.dst, e.dst_port,
                                           firing.tag, firing.value));
    }
    return produced;
  }

  void worker_loop(unsigned my_id) {
    WorkerState& me = workers_[my_id];
    RunGovernor governor = loop_.make_governor(options_);
    obs::ThreadRecorder* const rec =
        tel_ != nullptr
            ? &tel_->register_thread("df-worker-" + std::to_string(my_id))
            : nullptr;
    // Busy-period span: opened at the first token after an idle stretch,
    // closed (with the token count as its arg) when the inbox drains — one
    // ring entry per burst instead of one per token.
    std::uint64_t busy_start = 0;
    std::uint64_t busy_tokens = 0;
    bool busy = false;
    const auto close_busy = [&] {
      if (rec == nullptr || !busy) return;
      const std::uint64_t end = tel_->now_us();
      rec->record(obs::TraceEvent{"busy", 'X', busy_start, end - busy_start,
                                  busy_tokens, true});
      busy = false;
    };

    unsigned idle_spins = 0;
    while (true) {
      if (stop_.stopped()) {
        close_busy();
        return;
      }
      if (governor.should_stop()) {
        // First worker to notice publishes the outcome; peers drain out at
        // the check above, so every thread joins promptly.
        stop_.publish(governor.outcome());
        close_busy();
        return;
      }
      std::optional<Routed> routed = me.inbox.try_pop();
      if (!routed) {
        close_busy();
        if (in_flight_.idle()) return;
        if (++idle_spins > 64) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          std::this_thread::yield();
        }
        continue;
      }
      idle_spins = 0;
      if (rec != nullptr && !busy) {
        busy = true;
        busy_start = tel_->now_us();
        busy_tokens = 0;
      }
      ++busy_tokens;
      try {
        absorb(me, *routed);
      } catch (...) {
        // The first error wins; the stop winds the other workers down.
        {
          const std::scoped_lock lk(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        stop_.publish(Outcome::Cancelled);
        close_busy();
        return;
      }
      if (tel_ != nullptr && me.absorbed % kInboxSampleInterval == 0) {
        inbox_hist_->observe(static_cast<double>(me.inbox.size()));
      }
      // Absorbed (stored or fired + emissions already counted): this token
      // is no longer in flight.
      in_flight_.sub();
    }
  }

  void absorb(WorkerState& me, Routed& routed) {
    ++me.absorbed;
    const Node& node = graph_.node(routed.node);
    OperandFrame frame;
    switch (me.waiting.put(routed.node, routed.port, routed.token.tag,
                           std::move(routed.token.value), frame)) {
      case MatchStore::Put::Waiting:
        return;  // still waiting for partners
      case MatchStore::Put::Duplicate:
        throw duplicate_operand(routed.node, routed.port, routed.token.tag);
      case MatchStore::Put::Ready:
        break;
    }
    const std::span<const Value> inputs =
        frame.operands(me.waiting.arity(routed.node));

    // Run-wide budget gate: claim a fire slot, give it back on refusal.
    // Under LimitPolicy::Throw, admit_step throws instead of refusing.
    const std::uint64_t n = total_fires_.fetch_add(1, std::memory_order_relaxed);
    if (!runtime::admit_step(options_.limit_policy, n, options_.max_fires,
                             "parallel dataflow engine", "max_fires")) {
      total_fires_.fetch_sub(1, std::memory_order_relaxed);
      stop_.publish(Outcome::BudgetExhausted);
      // Park the assembled-but-unfired operands back in the matching store
      // so the partial result reports them as leftovers.
      me.waiting.park(routed.node, routed.token.tag, std::move(frame));
      return;
    }
    ++me.fires_by_node[routed.node];
    if (tel_ != nullptr) {
      ++me.fires_by_kind[static_cast<std::size_t>(node.kind)];
    }
    obs::FireRecord fr;
    if (jrec_ != nullptr) {
      fr.reaction = journal_node_label(graph_, routed.node);
      fr.consumed.reserve(inputs.size());
      for (PortId p = 0; p < inputs.size(); ++p) {
        fr.consumed.push_back(journal_token_str(graph_, routed.node, p,
                                                routed.token.tag, inputs[p]));
      }
    }
    if (node.kind == NodeKind::Output) {
      if (jrec_ != nullptr) {
        fr.produced.push_back(
            journal_output_str(node.name, routed.token.tag, inputs[0]));
        jrec_->fire(std::move(fr));
      }
      me.outputs[node.name].emplace_back(routed.token.tag,
                                         std::move(frame.values[0]));
      return;
    }
    const Firing firing = fire_node(node, inputs, routed.token.tag);
    if (tel_ != nullptr) {
      if (node.kind == NodeKind::Steer && firing.emits) {
        ++(firing.port == kSteerTrue ? me.steer_true : me.steer_false);
      } else if (node.kind == NodeKind::IncTag) {
        tag_hist_->observe(static_cast<double>(firing.tag));
      }
    }
    if (jrec_ != nullptr) {
      fr.produced = emission_strs(routed.node, firing);
      jrec_->fire(std::move(fr));
    }
    route_emission(routed.node, firing);
  }

  const Graph& graph_;
  const DfRunOptions& options_;
  unsigned worker_count_;
  std::vector<WorkerState> workers_;
  runtime::StepLoop loop_;
  runtime::EngineTelemetry telemetry_;
  runtime::InFlight in_flight_;
  std::atomic<std::uint64_t> total_fires_{0};
  runtime::StopFlag stop_;
  std::mutex error_mutex_;
  std::exception_ptr error_;  // the first worker error, rethrown after join

  obs::Telemetry* tel_ = nullptr;
  obs::RunRecorder* jrec_ = nullptr;
  Histogram* inbox_hist_ = nullptr;
  Histogram* tag_hist_ = nullptr;
};

}  // namespace

DfRunResult ParallelEngine::run(const Graph& graph,
                                const DfRunOptions& options) const {
  graph.validate();
  ParallelRun run_state(graph, options);
  return run_state.run();
}

}  // namespace gammaflow::dataflow
