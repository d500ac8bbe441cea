// Interpreter: single-threaded tagged-token machine processed in wavefronts.
// Each wavefront fires every node instance that became ready in the previous
// one — so `result.wavefronts` is the graph's exposed parallelism over time
// (what a machine with unbounded PEs could do per step), while execution
// itself stays deterministic.
#include <array>
#include <unordered_map>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/match_store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::dataflow {

std::string journal_token_str(const Graph& graph, NodeId dst, PortId port,
                              Tag tag, const Value& value) {
  const Node& n = graph.node(dst);
  std::string s = n.name.empty() ? std::string("n") : n.name;
  s += '#';
  s += std::to_string(dst);
  s += '.';
  s += std::to_string(port);
  s += " t";
  s += std::to_string(tag);
  s += " = ";
  s += value.to_string();
  return s;
}

std::string journal_output_str(const std::string& name, Tag tag,
                               const Value& value) {
  return "out " + name + " t" + std::to_string(tag) + " = " +
         value.to_string();
}

namespace {

struct ReadyInstance {
  NodeId node;
  Tag tag;
  OperandFrame frame;
};

// Local aliases: the journal renderings are shared with the parallel engine
// (declared in engine.hpp); these keep the call sites short.
constexpr auto tok_str = journal_token_str;
constexpr auto out_str = journal_output_str;

class Machine {
 public:
  Machine(const Graph& graph, const DfRunOptions& options)
      : graph_(graph),
        options_(options),
        loop_(options, options.max_fires, "interpreter", "max_fires"),
        telemetry_(options, "df"),
        waiting_(graph) {
    result_.fires_by_node.assign(graph.node_count(), 0);
    if ((jrec_ = options.record) != nullptr) {
      // The dataflow "store" is the set of parked tokens plus captured
      // outputs; it starts empty (Const roots are fires).
      jrec_->begin("interpreter", "dataflow", {});
    }
    if ((tel_ = telemetry_.sink()) != nullptr) {
      rec_ = telemetry_.recorder("df-interpreter");
      tag_hist_ = &tel_->stats().hist("df.inctag_depth");
      wave_hist_ = &tel_->stats().hist("df.wavefront_width");
      ready_hist_ = &tel_->stats().hist("df.ready_queue_depth");
    }
  }

  void deliver(NodeId node, PortId port, Token token) {
    // Tag-matching store: operands wait until all ports hold this tag.
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
  }

  void emit_from(NodeId node, const Firing& firing,
                 std::vector<std::string>* produced = nullptr) {
    if (!firing.emits) return;
    if (tel_ != nullptr) {
      const NodeKind kind = graph_.node(node).kind;
      if (kind == NodeKind::Steer) {
        ++(firing.port == kSteerTrue ? steer_true_ : steer_false_);
      } else if (kind == NodeKind::IncTag) {
        tag_hist_->observe(static_cast<double>(firing.tag));
      }
    }
    const auto& edges = graph_.out_edges(node, firing.port);
    // No consumer => the token is discarded (steer FALSE port in Fig. 2).
    for (const EdgeId eid : edges) {
      const Edge& e = graph_.edge(eid);
      if (produced != nullptr) {
        produced->push_back(
            tok_str(graph_, e.dst, e.dst_port, firing.tag, firing.value));
      }
      deliver(e.dst, e.dst_port, Token{firing.value, firing.tag});
    }
  }

  DfRunResult run() {
    for (const NodeId root : graph_.roots()) {
      if (stopping()) break;
      const Firing f = fire_node(graph_.node(root), {}, 0);
      count_fire(root);
      std::vector<std::string> produced;
      emit_from(root, f, jrec_ != nullptr ? &produced : nullptr);
      record_fire(root, nullptr, std::move(produced));
    }

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
        const Node& node = graph_.node(inst.node);
        count_fire(inst.node);
        if (node.kind == NodeKind::Output) {
          if (jrec_ != nullptr) {
            record_fire(inst.node, &inst,
                        {out_str(node.name, inst.tag, inst.frame.values[0])});
          }
          result_.outputs[node.name].emplace_back(
              inst.tag, std::move(inst.frame.values[0]));
          continue;
        }
        std::vector<std::string> produced;
        const Firing f = compute(node, inst);
        emit_from(inst.node, f, jrec_ != nullptr ? &produced : nullptr);
        record_fire(inst.node, &inst, std::move(produced));
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
    if (tel_ != nullptr) {
      auto& stats = tel_->stats();
      for (std::size_t k = 0; k < fires_by_kind_.size(); ++k) {
        if (fires_by_kind_[k] > 0) {
          stats.count(std::string("df.fires.") +
                          to_string(static_cast<NodeKind>(k)),
                      fires_by_kind_[k]);
        }
      }
      stats.count("df.fires", result_.fires);
      stats.count("df.steer_true", steer_true_);
      stats.count("df.steer_false", steer_false_);
    }
    result_.outcome = loop_.outcome();
    telemetry_.finish(result_.outcome, result_.metrics);
    if (jrec_ != nullptr) jrec_->finish(to_string(result_.outcome), snapshot());
    result_.wall_seconds = loop_.wall_seconds();
    return std::move(result_);
  }

 private:
  /// Fires `node`, with DF-DTM-style trace reuse for pure operator nodes
  /// when enabled: the same (node, operands) always produces the same value,
  /// so a cache hit skips the computation. Tag-dependent kinds (inctag,
  /// dectag) and routing (steer — cheap anyway) always execute.
  Firing compute(const Node& node, const ReadyInstance& inst) {
    const bool cacheable =
        options_.memoize &&
        (node.kind == NodeKind::Arith || node.kind == NodeKind::Cmp);
    const std::span<const Value> inputs =
        inst.frame.operands(waiting_.arity(inst.node));
    if (!cacheable) return fire_node(node, inputs, inst.tag);

    // Operation-level reuse: the cache is keyed by the OPERATION signature
    // (kind, operator, immediate), not the node id, so identical
    // computations share entries across nodes — exactly what makes the
    // Fig. 4 replicated instances profit from each other's traces.
    std::size_t key =
        (static_cast<std::size_t>(node.kind) << 8) ^
        (static_cast<std::size_t>(node.op) << 1) ^
        static_cast<std::size_t>(node.has_immediate);
    if (node.has_immediate) key ^= node.constant.hash() << 16;
    for (const Value& v : inputs) {
      key ^= v.hash() + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
    }
    const auto [lo, hi] = memo_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      const MemoEntry& e = it->second;
      if (e.kind == node.kind && e.op == node.op &&
          e.has_immediate == node.has_immediate &&
          (!node.has_immediate || e.immediate == node.constant) &&
          e.inputs == inst.frame.values) {
        ++result_.memo_hits;
        Firing f;
        f.emits = true;
        f.value = e.value;
        f.tag = inst.tag;  // the value repeats; the iteration does not
        return f;
      }
    }
    ++result_.memo_misses;
    Firing f = fire_node(node, inputs, inst.tag);
    memo_.emplace(key, MemoEntry{node.kind, node.op, node.has_immediate,
                                 node.constant, inst.frame.values, f.value});
    return f;
  }

  struct MemoEntry {
    NodeKind kind;
    expr::BinOp op;
    bool has_immediate;
    Value immediate;
    std::array<Value, kMaxInputs> inputs;  // unused ports hold nil
    Value value;
  };

  /// Cooperative stop probe: budget, then cancel/deadline. Sticky through
  /// the StepLoop's outcome so enclosing loops unwind without firing further.
  [[nodiscard]] bool stopping() {
    if (!loop_.running()) return true;
    if (!loop_.admit(result_.fires)) return true;
    return loop_.should_stop();
  }

  /// Journals one firing: consumed operands from `inst` (null for Const
  /// roots, which fire from nothing), produced token strings from the
  /// emission. No-op when recording is off.
  void record_fire(NodeId node, const ReadyInstance* inst,
                   std::vector<std::string> produced) {
    if (jrec_ == nullptr) return;
    obs::FireRecord fr;
    fr.reaction = journal_node_label(graph_, node);
    if (inst != nullptr) {
      const auto inputs = inst->frame.operands(waiting_.arity(node));
      fr.consumed.reserve(inputs.size());
      for (PortId p = 0; p < inputs.size(); ++p) {
        fr.consumed.push_back(tok_str(graph_, node, p, inst->tag, inputs[p]));
      }
    }
    fr.produced = std::move(produced);
    jrec_->fire(std::move(fr));
  }

  /// The journal's store view: every parked token (ready or tag-matching)
  /// plus every captured output.
  [[nodiscard]] obs::StoreCounts snapshot() const {
    return journal_store(graph_, result_.outputs, pending());
  }

  void count_fire(NodeId node) {
    ++result_.fires;
    ++result_.fires_by_node[node];
    if (tel_ != nullptr) {
      ++fires_by_kind_[static_cast<std::size_t>(graph_.node(node).kind)];
    }
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
  const DfRunOptions& options_;
  runtime::StepLoop loop_;
  runtime::EngineTelemetry telemetry_;
  MatchStore waiting_;
  // The wavefront being fired (from head_ on, the unfired part) and the
  // one it makes ready; both keep their capacity from wave to wave.
  std::vector<ReadyInstance> current_;
  std::vector<ReadyInstance> next_;
  std::size_t head_ = 0;
  std::unordered_multimap<std::size_t, MemoEntry> memo_;
  DfRunResult result_;

  obs::Telemetry* tel_ = nullptr;
  obs::ThreadRecorder* rec_ = nullptr;
  obs::RunRecorder* jrec_ = nullptr;
  Histogram* tag_hist_ = nullptr;
  Histogram* wave_hist_ = nullptr;
  Histogram* ready_hist_ = nullptr;
  std::array<std::uint64_t, 7> fires_by_kind_{};
  std::uint64_t steer_true_ = 0;
  std::uint64_t steer_false_ = 0;
};

}  // namespace

DfRunResult Interpreter::run(const Graph& graph,
                             const DfRunOptions& options) const {
  graph.validate();
  Machine machine(graph, options);
  return machine.run();
}

}  // namespace gammaflow::dataflow
