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
//
// Each PE fires through a FireStep of its own (fire_step.hpp), finished in
// PE order after the join; this file keeps the PE schedule.
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "gammaflow/common/logging.hpp"
#include "gammaflow/common/mpsc_queue.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/fire_step.hpp"
#include "gammaflow/dataflow/match_store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::dataflow {
namespace {

/// Sample the inbox depth histogram once per this many absorbed tokens
/// (MpscQueue::size takes the queue lock, so keep sampling sparse).
constexpr std::uint64_t kInboxSampleInterval = 256;

struct WorkerState {
  // Built on the coordinating thread in PE order, before any PE starts,
  // so a traced run gives its PEs the same tids every time.
  WorkerState(const Graph& graph, obs::RunRecorder* journal,
              obs::Telemetry* tel, unsigned id)
      : waiting(graph),
        step(graph, journal, tel),
        rec(tel != nullptr
                ? &tel->register_thread(
                      std::string("df-worker-").append(std::to_string(id)))
                : nullptr) {}

  // Tokens on their way to (node, port): pending operands of this PE.
  MpscQueue<PendingOperand> inbox;
  // Matching store; only the tables of owned nodes are ever used.
  MatchStore waiting;
  // Worker-local fire counts, outputs and telemetry, merged after join.
  FireStep step;
  std::uint64_t absorbed = 0;
  obs::ThreadRecorder* rec;  // null when telemetry is off
};

class ParallelRun {
 public:
  ParallelRun(const Graph& graph, const DfRunOptions& options)
      : graph_(graph),
        options_(options),
        worker_count_(std::max(1u, options.workers)),
        loop_(options, options.max_fires, "parallel dataflow engine",
              "max_fires"),
        telemetry_(options, "df"),
        jrec_(options.record),
        tel_(telemetry_.sink()) {
    for (unsigned w = 0; w < worker_count_; ++w) {
      workers_.emplace_back(graph, jrec_, tel_, w);
    }
    if (jrec_ != nullptr) jrec_->begin("parallel", "dataflow", {});
    if (tel_ != nullptr) inbox_hist_ = &tel_->stats().hist("df.inbox_depth");
  }

  /// The route a FireStep hands each emission to: the inbox of the PE that
  /// owns the node (node id mod W). Defined before its callers, which need
  /// its deduced type.
  [[nodiscard]] auto route() {
    return [this](NodeId node, PortId port, Token token) {
      in_flight_.add();
      workers_[node % worker_count_].inbox.push(
          PendingOperand{node, port, token.tag, std::move(token.value)});
    };
  }

  DfRunResult run() {
    GF_DEBUG << "dataflow parallel run: " << worker_count_ << " PE(s), "
             << graph_.node_count() << " nodes";

    // Seed: const emissions, routed before workers start and before the
    // budget gate, which counts them.
    FireStep& seeder = workers_[0].step;
    seeder.fire_roots([] { return true; }, route());
    total_fires_.store(seeder.fires(), std::memory_order_relaxed);

    std::vector<std::thread> threads;
    threads.reserve(worker_count_);
    for (unsigned w = 0; w < worker_count_; ++w) {
      threads.emplace_back([this, w] { worker_loop(w); });
    }
    for (auto& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);

    DfRunResult result;
    result.outcome = stop_.outcome();
    std::uint64_t absorbed = 0;
    for (WorkerState& w : workers_) {
      w.step.finish(result);
      absorbed += w.absorbed;
      // On a cooperative stop, tokens still queued in the inbox are part of
      // the machine state: surface them as leftovers (post-join, so the
      // queue has no concurrent producers anymore).
      while (auto routed = w.inbox.try_pop()) {
        result.leftovers.push_back(std::move(*routed));
      }
      w.waiting.append_to(result.leftovers);
    }
    if (tel_ != nullptr) tel_->stats().count("df.tokens_absorbed", absorbed);
    telemetry_.finish(result.outcome, result.metrics);
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
  void worker_loop(unsigned my_id) {
    WorkerState& me = workers_[my_id];
    RunGovernor governor = loop_.make_governor(options_);
    obs::ThreadRecorder* const rec = me.rec;
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
      std::optional<PendingOperand> routed = me.inbox.try_pop();
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

  void absorb(WorkerState& me, PendingOperand& routed) {
    ++me.absorbed;
    OperandFrame frame;
    switch (me.waiting.put(routed.node, routed.port, routed.tag,
                           std::move(routed.value), frame)) {
      case MatchStore::Put::Waiting:
        return;  // still waiting for partners
      case MatchStore::Put::Duplicate:
        throw duplicate_operand(routed.node, routed.port, routed.tag);
      case MatchStore::Put::Ready:
        break;
    }
    // Run-wide budget gate: claim a fire slot, give it back on refusal.
    // Under LimitPolicy::Throw, admit_step throws instead of refusing.
    const std::uint64_t n = total_fires_.fetch_add(1, std::memory_order_relaxed);
    if (!runtime::admit_step(options_.limit_policy, n, options_.max_fires,
                             "parallel dataflow engine", "max_fires")) {
      total_fires_.fetch_sub(1, std::memory_order_relaxed);
      stop_.publish(Outcome::BudgetExhausted);
      // Park the assembled-but-unfired operands back in the matching store
      // so the partial result reports them as leftovers.
      me.waiting.park(routed.node, routed.tag, std::move(frame));
      return;
    }
    me.step.fire(routed.node, routed.tag, me.waiting.arity(routed.node),
                 frame, route());
  }

  const Graph& graph_;
  const DfRunOptions& options_;
  unsigned worker_count_;
  runtime::StepLoop loop_;
  runtime::EngineTelemetry telemetry_;
  obs::RunRecorder* jrec_;
  obs::Telemetry* tel_;
  // A deque: a WorkerState holds a mutex, so it cannot move.
  std::deque<WorkerState> workers_;
  runtime::InFlight in_flight_;
  std::atomic<std::uint64_t> total_fires_{0};
  runtime::StopFlag stop_;
  std::mutex error_mutex_;
  std::exception_ptr error_;  // the first worker error, rethrown after join

  Histogram* inbox_hist_ = nullptr;
};

}  // namespace

DfRunResult ParallelEngine::run(const Graph& graph,
                                const DfRunOptions& options) const {
  ParallelRun run_state(graph, options);
  return run_state.run();
}

}  // namespace gammaflow::dataflow
