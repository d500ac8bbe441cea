#include "gammaflow/dataflow/engine.hpp"

#include <algorithm>

#include "gammaflow/expr/eval.hpp"

namespace gammaflow::dataflow {

std::vector<Value> DfRunResult::output_values(const std::string& name) const {
  auto it = outputs.find(name);
  if (it == outputs.end()) {
    throw EngineError("unknown output '" + name + "'");
  }
  std::vector<std::pair<Tag, Value>> sorted = it->second;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Value> values;
  values.reserve(sorted.size());
  for (auto& [tag, v] : sorted) values.push_back(std::move(v));
  return values;
}

Value DfRunResult::single_output(const std::string& name) const {
  const auto values = output_values(name);
  if (values.size() != 1) {
    throw EngineError("output '" + name + "' produced " +
                      std::to_string(values.size()) + " tokens, expected 1");
  }
  return values.front();
}

EngineError duplicate_operand(NodeId node, PortId port, Tag tag) {
  return EngineError(std::string("duplicate operand at node ")
                         .append(std::to_string(node))
                         .append(" port ")
                         .append(std::to_string(port))
                         .append(" tag ")
                         .append(std::to_string(tag)));
}

Firing fire_node(const Node& node, std::span<const Value> inputs, Tag tag) {
  // The one guard before the unchecked inputs[i] reads below.
  if (inputs.size() < input_arity(node)) {
    throw EngineError(std::string(to_string(node.kind))
                          .append(" node fired with ")
                          .append(std::to_string(inputs.size()))
                          .append(" operand(s), needs ")
                          .append(std::to_string(input_arity(node))));
  }
  Firing f;
  switch (node.kind) {
    case NodeKind::Const:
      f.emits = true;
      f.value = node.constant;
      f.tag = tag;
      return f;
    case NodeKind::Arith:
      f.emits = true;
      f.value = expr::apply(node.op, inputs[0],
                            node.has_immediate ? node.constant : inputs[1]);
      f.tag = tag;
      return f;
    case NodeKind::Cmp: {
      // Int 1/0, matching the elements Algorithm 1's comparison reactions
      // produce — keeps dataflow and Gamma results structurally equal.
      const Value b =
          expr::apply(node.op, inputs[0],
                      node.has_immediate ? node.constant : inputs[1]);
      f.emits = true;
      f.value = Value(b.truthy() ? std::int64_t{1} : std::int64_t{0});
      f.tag = tag;
      return f;
    }
    case NodeKind::Steer:
      f.emits = true;
      f.value = inputs[kSteerData];
      f.tag = tag;
      f.port = inputs[kSteerControl].truthy() ? kSteerTrue : kSteerFalse;
      return f;
    case NodeKind::IncTag:
      f.emits = true;
      f.value = inputs[0];
      f.tag = tag + 1;
      return f;
    case NodeKind::DecTag:
      if (tag == 0) throw EngineError("dectag on tag 0");
      f.emits = true;
      f.value = inputs[0];
      f.tag = tag - 1;
      return f;
    case NodeKind::Output:
      f.emits = false;
      return f;
  }
  throw EngineError("unknown node kind");
}

}  // namespace gammaflow::dataflow
