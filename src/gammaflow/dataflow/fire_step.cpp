#include "gammaflow/dataflow/fire_step.hpp"

#include <iterator>

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

/// Journal label of a node: its name, or "<kind>#<id>" when unnamed.
std::string journal_node_label(const Graph& graph, NodeId node) {
  const Node& n = graph.node(node);
  return n.name.empty() ? std::string(to_string(n.kind))
                              .append("#")
                              .append(std::to_string(node))
                        : n.name;
}

}  // namespace

FireStep::FireStep(const Graph& graph, obs::RunRecorder* journal,
                   obs::Telemetry* tel, bool memoize)
    : graph_(graph),
      journal_(journal),
      tel_(tel),
      memoize_(memoize),
      fires_by_node_(graph.node_count(), 0) {
  if (tel_ != nullptr) tag_hist_ = &tel_->stats().hist("df.inctag_depth");
}

Firing FireStep::reuse(const Node& node, Tag tag, const OperandFrame& frame,
                       std::span<const Value> inputs) {
  // Operation-level reuse: the cache is keyed by the OPERATION signature
  // (kind, operator, immediate), not the node id, so identical
  // computations share entries across nodes — exactly what makes the
  // Fig. 4 replicated instances profit from each other's traces.
  std::size_t key = (static_cast<std::size_t>(node.kind) << 8) ^
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
        e.inputs == frame.values) {
      ++memo_hits_;
      Firing f;
      f.emits = true;
      f.value = e.value;
      f.tag = tag;  // the value repeats; the iteration does not
      return f;
    }
  }
  ++memo_misses_;
  Firing f = fire_node(node, inputs, tag);
  memo_.emplace(key, MemoEntry{node.kind, node.op, node.has_immediate,
                               node.constant, frame.values, f.value});
  return f;
}

void FireStep::record(NodeId id, Tag tag, std::span<const Value> inputs,
                      const Firing& f) const {
  obs::FireRecord fr;
  fr.reaction = journal_node_label(graph_, id);
  fr.consumed.reserve(inputs.size());
  for (PortId p = 0; p < inputs.size(); ++p) {
    fr.consumed.push_back(journal_token_str(graph_, id, p, tag, inputs[p]));
  }
  const Node& node = graph_.node(id);
  if (node.kind == NodeKind::Output) {
    fr.produced.push_back(journal_output_str(node.name, tag, inputs[0]));
  } else if (f.emits) {
    for (const EdgeId eid : graph_.out_edges(id, f.port)) {
      const Edge& e = graph_.edge(eid);
      fr.produced.push_back(
          journal_token_str(graph_, e.dst, e.dst_port, f.tag, f.value));
    }
  }
  journal_->fire(std::move(fr));
}

void FireStep::finish(DfRunResult& result) {
  if (tel_ != nullptr) {
    auto& stats = tel_->stats();
    for (std::size_t k = 0; k < fires_by_kind_.size(); ++k) {
      if (fires_by_kind_[k] > 0) {
        stats.count(std::string("df.fires.") +
                        to_string(static_cast<NodeKind>(k)),
                    fires_by_kind_[k]);
      }
    }
    stats.count("df.fires", fires_);
    stats.count("df.steer_true", steer_true_);
    stats.count("df.steer_false", steer_false_);
  }
  result.fires += fires_;
  result.fires_by_node.resize(fires_by_node_.size(), 0);
  for (std::size_t n = 0; n < fires_by_node_.size(); ++n) {
    result.fires_by_node[n] += fires_by_node_[n];
  }
  for (auto& [name, tokens] : outputs_) {
    auto& dst = result.outputs[name];
    dst.insert(dst.end(), std::make_move_iterator(tokens.begin()),
               std::make_move_iterator(tokens.end()));
  }
  result.memo_hits += memo_hits_;
  result.memo_misses += memo_misses_;
}

}  // namespace gammaflow::dataflow
