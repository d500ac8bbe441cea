#include "gammaflow/dataflow/graph.hpp"

#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_set>

namespace gammaflow::dataflow {

const std::vector<EdgeId> Graph::kNoEdges;

const std::vector<EdgeId>& Graph::out_edges(NodeId id, PortId port) const {
  if (id >= out_adj_.size() || port >= out_adj_[id].size()) return kNoEdges;
  return out_adj_[id][port];
}

const std::vector<EdgeId>& Graph::in_edges(NodeId id, PortId port) const {
  if (id >= in_adj_.size() || port >= in_adj_[id].size()) return kNoEdges;
  return in_adj_[id][port];
}

std::vector<NodeId> Graph::roots() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == NodeKind::Const) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Graph::outputs() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == NodeKind::Output) out.push_back(id);
  }
  return out;
}

std::optional<NodeId> Graph::find(const std::string& name) const {
  std::optional<NodeId> found;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].name == name) {
      if (found) return std::nullopt;  // ambiguous
      found = id;
    }
  }
  return found;
}

void Graph::validate() const {
  std::unordered_set<std::string_view> labels;
  for (EdgeId eid = 0; eid < edges_.size(); ++eid) {
    const Edge& e = edges_[eid];
    if (e.src >= nodes_.size() || e.dst >= nodes_.size()) {
      throw GraphError("edge " + std::to_string(eid) + " references a missing node");
    }
    if (e.src_port >= output_arity(nodes_[e.src].kind)) {
      throw GraphError("edge '" + e.label + "' leaves invalid port " +
                       std::to_string(e.src_port) + " of " +
                       dataflow::to_string(nodes_[e.src].kind) + " node " +
                       std::to_string(e.src));
    }
    if (e.dst_port >= input_arity(nodes_[e.dst])) {
      throw GraphError("edge '" + e.label + "' enters invalid port " +
                       std::to_string(e.dst_port) + " of " +
                       dataflow::to_string(nodes_[e.dst].kind) + " node " +
                       std::to_string(e.dst));
    }
    if (!labels.insert(e.label).second) {
      throw GraphError("duplicate edge label '" + e.label + "'");
    }
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const std::size_t in_arity = input_arity(nodes_[id]);
    for (PortId p = 0; p < in_arity; ++p) {
      if (in_edges(id, p).empty()) {
        throw GraphError(std::string(dataflow::to_string(nodes_[id].kind)) + " node " +
                         std::to_string(id) +
                         (nodes_[id].name.empty() ? "" : " ('" + nodes_[id].name + "')") +
                         " input port " + std::to_string(p) + " is unconnected");
      }
    }
    if (nodes_[id].kind == NodeKind::Arith &&
        !expr::is_arithmetic(nodes_[id].op)) {
      throw GraphError("arith node " + std::to_string(id) +
                       " carries non-arithmetic operator");
    }
    if (nodes_[id].kind == NodeKind::Cmp && !expr::is_comparison(nodes_[id].op)) {
      throw GraphError("cmp node " + std::to_string(id) +
                       " carries non-comparison operator");
    }
  }
}

std::string Graph::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Graph& g) {
  os << "graph: " << g.node_count() << " nodes, " << g.edge_count() << " edges\n";
  for (NodeId id = 0; id < g.node_count(); ++id) {
    const Node& n = g.node(id);
    os << "  n" << id << " " << to_string(n.kind);
    if (n.kind == NodeKind::Arith || n.kind == NodeKind::Cmp) {
      os << '(' << expr::to_string(n.op) << ')';
    }
    if (n.kind == NodeKind::Const) os << '(' << n.constant << ')';
    if (!n.name.empty()) os << " '" << n.name << "'";
    os << '\n';
  }
  for (const Edge& e : g.edges()) {
    os << "  n" << e.src << ':' << e.src_port << " -[" << e.label << "]-> n"
       << e.dst << ':' << e.dst_port << '\n';
  }
  return os;
}

// ---- GraphBuilder ----

NodeId GraphBuilder::add_node(Node node) {
  const auto id = static_cast<NodeId>(graph_.nodes_.size());
  graph_.out_adj_.emplace_back(output_arity(node.kind));
  graph_.in_adj_.emplace_back(input_arity(node));
  graph_.nodes_.push_back(std::move(node));
  return id;
}

void GraphBuilder::set_name(NodeId node, std::string name) {
  if (node >= graph_.nodes_.size()) {
    throw GraphError("set_name on missing node");
  }
  graph_.nodes_[node].name = std::move(name);
}

GraphBuilder::Port GraphBuilder::constant(Value v, std::string name) {
  Node n;
  n.kind = NodeKind::Const;
  n.constant = std::move(v);
  n.name = std::move(name);
  return Port{add_node(std::move(n)), 0};
}

NodeId GraphBuilder::arith(expr::BinOp op, std::string name) {
  if (!expr::is_arithmetic(op)) {
    throw GraphError(std::string("arith node requires arithmetic op, got ") +
                     expr::to_string(op));
  }
  Node n;
  n.kind = NodeKind::Arith;
  n.op = op;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId GraphBuilder::cmp(expr::BinOp op, std::string name) {
  if (!expr::is_comparison(op)) {
    throw GraphError(std::string("cmp node requires comparison op, got ") +
                     expr::to_string(op));
  }
  Node n;
  n.kind = NodeKind::Cmp;
  n.op = op;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId GraphBuilder::arith_imm(expr::BinOp op, Value imm, std::string name) {
  const NodeId id = arith(op, std::move(name));
  graph_.nodes_[id].has_immediate = true;
  graph_.nodes_[id].constant = std::move(imm);
  graph_.in_adj_[id].resize(1);
  return id;
}

NodeId GraphBuilder::cmp_imm(expr::BinOp op, Value imm, std::string name) {
  const NodeId id = cmp(op, std::move(name));
  graph_.nodes_[id].has_immediate = true;
  graph_.nodes_[id].constant = std::move(imm);
  graph_.in_adj_[id].resize(1);
  return id;
}

NodeId GraphBuilder::steer(std::string name) {
  Node n;
  n.kind = NodeKind::Steer;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId GraphBuilder::inctag(std::string name) {
  Node n;
  n.kind = NodeKind::IncTag;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId GraphBuilder::dectag(std::string name) {
  Node n;
  n.kind = NodeKind::DecTag;
  n.name = std::move(name);
  return add_node(std::move(n));
}

NodeId GraphBuilder::output(std::string name) {
  if (name.empty()) throw GraphError("output node requires a name");
  Node n;
  n.kind = NodeKind::Output;
  n.name = std::move(name);
  return add_node(std::move(n));
}

EdgeId GraphBuilder::connect(Port src, NodeId dst, PortId dst_port,
                             std::string_view label) {
  Edge e{src.node, src.port, dst, dst_port,
         label.empty()
             ? std::string("e").append(std::to_string(next_auto_label_++))
             : std::string(label)};
  const auto eid = static_cast<EdgeId>(graph_.edges_.size());
  if (src.node >= graph_.nodes_.size() || dst >= graph_.nodes_.size()) {
    throw GraphError("connect references a missing node");
  }
  if (src.port >= graph_.out_adj_[src.node].size()) {
    throw GraphError("connect from invalid output port");
  }
  if (dst_port >= graph_.in_adj_[dst].size()) {
    throw GraphError("connect to invalid input port");
  }
  graph_.out_adj_[src.node][src.port].push_back(eid);
  graph_.in_adj_[dst][dst_port].push_back(eid);
  graph_.edges_.push_back(std::move(e));
  return eid;
}

GraphBuilder::Port GraphBuilder::arith(expr::BinOp op, Port a, Port b,
                                       std::string name) {
  const NodeId id = arith(op, std::move(name));
  connect(a, id, 0);
  connect(b, id, 1);
  return Port{id, 0};
}

GraphBuilder::Port GraphBuilder::cmp(expr::BinOp op, Port a, Port b,
                                     std::string name) {
  const NodeId id = cmp(op, std::move(name));
  connect(a, id, 0);
  connect(b, id, 1);
  return Port{id, 0};
}

GraphBuilder::Port GraphBuilder::arith_imm(expr::BinOp op, Port a, Value imm,
                                           std::string name) {
  const NodeId id = arith_imm(op, std::move(imm), std::move(name));
  connect(a, id, 0);
  return Port{id, 0};
}

GraphBuilder::Port GraphBuilder::cmp_imm(expr::BinOp op, Port a, Value imm,
                                         std::string name) {
  const NodeId id = cmp_imm(op, std::move(imm), std::move(name));
  connect(a, id, 0);
  return Port{id, 0};
}

NodeId GraphBuilder::steer(Port data, Port control, std::string name) {
  const NodeId id = steer(std::move(name));
  connect(data, id, kSteerData);
  connect(control, id, kSteerControl);
  return id;
}

GraphBuilder::Port GraphBuilder::inctag(Port in, std::string name) {
  const NodeId id = inctag(std::move(name));
  connect(in, id, 0);
  return Port{id, 0};
}

NodeId GraphBuilder::output(Port in, std::string name) {
  const NodeId id = output(std::move(name));
  connect(in, id, 0);
  return id;
}

Graph GraphBuilder::build() && {
  graph_.validate();
  return std::move(graph_);
}

}  // namespace gammaflow::dataflow
