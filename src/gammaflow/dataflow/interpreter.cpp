// Interpreter: single-threaded tagged-token machine processed in wavefronts.
// Each wavefront fires every node instance that became ready in the previous
// one — so `result.wavefronts` is the graph's exposed parallelism over time
// (what a machine with unbounded PEs could do per step), while execution
// itself stays deterministic. Each instance fires through a FireStep
// (fire_step.hpp); this file keeps the schedule, whose stop gate runs before
// every fire, Const roots included.
#include <vector>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/fire_step.hpp"
#include "gammaflow/dataflow/match_store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::dataflow {
namespace {

struct ReadyInstance {
  NodeId node;
  Tag tag;
  OperandFrame frame;
};

class Machine {
 public:
  Machine(const Graph& graph, const DfRunOptions& options)
      : graph_(graph),
        loop_(options, options.max_fires, "interpreter", "max_fires"),
        telemetry_(options, "df"),
        waiting_(graph),
        jrec_(options.record),
        tel_(telemetry_.sink()),
        step_(graph, jrec_, tel_, options.memoize) {
    if (jrec_ != nullptr) {
      // The dataflow "store" is the set of parked tokens plus captured
      // outputs; it starts empty (Const roots are fires).
      jrec_->begin("interpreter", "dataflow", {});
    }
    if (tel_ != nullptr) {
      rec_ = telemetry_.recorder("df-interpreter");
      wave_hist_ = &tel_->stats().hist("df.wavefront_width");
      ready_hist_ = &tel_->stats().hist("df.ready_queue_depth");
    }
  }

  DfRunResult run() {
    // Tag-matching store: operands wait until all ports hold this tag.
    const auto route = [this](NodeId node, PortId port, Token token) {
      OperandFrame frame;
      switch (
          waiting_.put(node, port, token.tag, std::move(token.value), frame)) {
        case MatchStore::Put::Waiting:
          return;
        case MatchStore::Put::Ready:
          next_.push_back(ReadyInstance{node, token.tag, std::move(frame)});
          return;
        case MatchStore::Put::Duplicate:
          throw duplicate_operand(node, port, token.tag);
      }
    };
    step_.fire_roots([this] { return !stopping(); }, route);

    while (!next_.empty() && loop_.running()) {
      // One wavefront: everything currently ready fires "simultaneously";
      // what it makes ready lands in next_ for the following one.
      current_.swap(next_);
      next_.clear();
      const std::size_t wave = current_.size();
      result_.wavefronts.push_back(wave);
      obs::Span wave_span(tel_, rec_, "wavefront");
      if (tel_ != nullptr) {
        wave_span.set_arg(wave);
        wave_hist_->observe(static_cast<double>(wave));
      }
      for (head_ = 0; head_ < wave; ++head_) {
        if (stopping()) break;  // unfired instances become leftovers
        ReadyInstance& inst = current_[head_];
        step_.fire(inst.node, inst.tag, waiting_.arity(inst.node), inst.frame,
                   route);
      }
      if (jrec_ != nullptr) jrec_->round(snapshot());
      // Ready tokens the wavefront produced for the next one: the token
      // queue depth over time.
      if (tel_ != nullptr) {
        ready_hist_->observe(
            static_cast<double>(current_.size() - head_ + next_.size()));
      }
    }

    result_.leftovers = pending();
    result_.outcome = loop_.outcome();
    if (jrec_ != nullptr) jrec_->finish(to_string(result_.outcome), snapshot());
    step_.finish(result_);
    telemetry_.finish(result_.outcome, result_.metrics);
    result_.wall_seconds = loop_.wall_seconds();
    return std::move(result_);
  }

 private:
  /// Cooperative stop probe: budget, then cancel/deadline. Sticky through
  /// the StepLoop's outcome so enclosing loops unwind without firing further.
  [[nodiscard]] bool stopping() {
    if (!loop_.running()) return true;
    if (!loop_.admit(step_.fires())) return true;
    return loop_.should_stop();
  }

  /// The journal's store view: every parked token (ready or tag-matching)
  /// plus every captured output.
  [[nodiscard]] obs::StoreCounts snapshot() const {
    return journal_store(graph_, step_.outputs(), pending());
  }

  /// Every operand still in the machine, in leftover order: ready but
  /// unfired instances (on an early stop) and the tag-matching store.
  [[nodiscard]] std::vector<PendingOperand> pending() const {
    std::vector<PendingOperand> out;
    const auto add = [&](const ReadyInstance& inst) {
      const auto inputs = inst.frame.operands(waiting_.arity(inst.node));
      for (PortId p = 0; p < inputs.size(); ++p) {
        out.push_back(PendingOperand{inst.node, p, inst.tag, inputs[p]});
      }
    };
    for (std::size_t i = head_; i < current_.size(); ++i) add(current_[i]);
    for (const ReadyInstance& inst : next_) add(inst);
    waiting_.append_to(out);
    sort_leftovers(out);
    return out;
  }

  const Graph& graph_;
  runtime::StepLoop loop_;
  runtime::EngineTelemetry telemetry_;
  MatchStore waiting_;
  obs::RunRecorder* jrec_;
  obs::Telemetry* tel_;
  FireStep step_;
  // The wavefront being fired (from head_ on, the unfired part) and the
  // one it makes ready; both keep their capacity from wave to wave.
  std::vector<ReadyInstance> current_;
  std::vector<ReadyInstance> next_;
  std::size_t head_ = 0;
  DfRunResult result_;

  obs::ThreadRecorder* rec_ = nullptr;
  Histogram* wave_hist_ = nullptr;
  Histogram* ready_hist_ = nullptr;
};

}  // namespace

DfRunResult Interpreter::run(const Graph& graph,
                             const DfRunOptions& options) const {
  Machine machine(graph, options);
  return machine.run();
}

}  // namespace gammaflow::dataflow
