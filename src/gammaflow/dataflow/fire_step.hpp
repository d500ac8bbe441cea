// FireStep: the firing rule's one step, run by the Interpreter and by each
// ParallelEngine PE. A step fires a ready instance (node, tag): it counts
// the fire by node and kind, captures an Output's token or applies the node
// (through the DF-DTM memo when `memoize` is set), observes the steer branch
// and the inctag depth, journals the consumed and produced tokens before any
// emission leaves (so a replay meets every producer before its consumers),
// and hands each emission to the caller's route. It also seeds the Const
// roots and flushes the `df.fires.*`, `df.fires` and `df.steer_*` counters.
// Each engine keeps only its schedule: when an instance is ready, and
// whether it may fire.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/match_store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"

namespace gammaflow::dataflow {

class FireStep {
 public:
  /// `journal` and `tel` may be null. `memoize` turns on the Interpreter's
  /// trace reuse (DfRunOptions::memoize).
  FireStep(const Graph& graph, obs::RunRecorder* journal, obs::Telemetry* tel,
           bool memoize = false);

  /// Fires the ready instance (node, tag), whose `arity` operands are in
  /// `frame`, and calls route(dst, port, Token) for each emitted token. An
  /// Output's operand is moved out of `frame` into outputs().
  template <class Route>
  void fire(NodeId id, Tag tag, std::size_t arity, OperandFrame& frame,
            Route&& route) {
    const Node& node = graph_.node(id);
    ++fires_;
    ++fires_by_node_[id];
    if (tel_ != nullptr) ++fires_by_kind_[static_cast<std::size_t>(node.kind)];
    const std::span<const Value> inputs = frame.operands(arity);
    if (node.kind == NodeKind::Output) {
      if (journal_ != nullptr) record(id, tag, inputs, Firing{});
      outputs_[node.name].emplace_back(tag, std::move(frame.values[0]));
      return;
    }
    const Firing f = memoize_ && (node.kind == NodeKind::Arith ||
                                  node.kind == NodeKind::Cmp)
                         ? reuse(node, tag, frame, inputs)
                         : fire_node(node, inputs, tag);
    if (tel_ != nullptr && node.kind == NodeKind::Steer) {
      ++(f.port == kSteerTrue ? steer_true_ : steer_false_);
    } else if (tel_ != nullptr && node.kind == NodeKind::IncTag) {
      tag_hist_->observe(static_cast<double>(f.tag));
    }
    if (journal_ != nullptr) record(id, tag, inputs, f);
    if (!f.emits) return;
    // No consumer => the token is discarded (steer FALSE port in Fig. 2).
    for (const EdgeId eid : graph_.out_edges(id, f.port)) {
      const Edge& e = graph_.edge(eid);
      route(e.dst, e.dst_port, Token{f.value, f.tag});
    }
  }

  /// Fires the Const roots with tag 0, in graph order, each once `admit()`
  /// allows it; the first refusal ends the seeding.
  template <class Admit, class Route>
  void fire_roots(Admit&& admit, Route&& route) {
    for (const NodeId root : graph_.roots()) {
      if (!admit()) return;
      OperandFrame none;
      fire(root, 0, 0, none, route);
    }
  }

  /// Adds this step's telemetry counters to the run's, and its fire counts,
  /// outputs (after those already there, name by name) and memo statistics
  /// to `result`'s; the PEs' steps finish in PE order.
  void finish(DfRunResult& result);

  [[nodiscard]] std::uint64_t fires() const noexcept { return fires_; }
  [[nodiscard]] const Outputs& outputs() const noexcept { return outputs_; }

 private:
  struct MemoEntry {
    NodeKind kind;
    expr::BinOp op;
    bool has_immediate;
    Value immediate;
    std::array<Value, kMaxInputs> inputs;  // unused ports hold nil
    Value value;
  };

  /// fire_node with DF-DTM trace reuse for a pure Arith/Cmp node.
  Firing reuse(const Node& node, Tag tag, const OperandFrame& frame,
               std::span<const Value> inputs);
  /// Journals the fire of (id, tag) on `inputs`: an Output's capture, or
  /// the tokens `f` puts on the out-edges of its port.
  void record(NodeId id, Tag tag, std::span<const Value> inputs,
              const Firing& f) const;

  const Graph& graph_;
  obs::RunRecorder* journal_;
  obs::Telemetry* tel_;
  bool memoize_;
  Histogram* tag_hist_ = nullptr;

  std::uint64_t fires_ = 0;
  std::vector<std::uint64_t> fires_by_node_;
  Outputs outputs_;
  std::array<std::uint64_t, 7> fires_by_kind_{};
  std::uint64_t steer_true_ = 0;
  std::uint64_t steer_false_ = 0;
  std::unordered_multimap<std::size_t, MemoEntry> memo_;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
};

}  // namespace gammaflow::dataflow
