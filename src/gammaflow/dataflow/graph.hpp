// Dataflow graph D(I, E): nodes are operations, labeled edges carry tagged
// operands between (node, port) endpoints. Edge labels are the bridge to
// Gamma — Algorithm 1 turns each edge label into the multiset element label
// its tokens become.
//
// Structure notes mirroring the paper's figures:
//  * an output port may fan out to several consumers (each its own edge with
//    its own label, like B12/B13 both leaving the Fig. 2 copy point);
//  * an input port may have several producers (the Fig. 2 inctag input is
//    fed by A1 initially and by the steer's loop-back edge A11) — correct
//    merging is guaranteed by the tag discipline, not the structure;
//  * a port with no out-edges discards its tokens (the unused steer FALSE
//    ports in Fig. 2 implement the reactions' "by 0 else").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/dataflow/node.hpp"

namespace gammaflow::dataflow {

using NodeId = std::uint32_t;
using PortId = std::uint32_t;
using EdgeId = std::uint32_t;

struct Edge {
  NodeId src = 0;
  PortId src_port = 0;
  NodeId dst = 0;
  PortId dst_port = 0;
  std::string label;
};

class Graph {
 public:
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] const Edge& edge(EdgeId id) const { return edges_.at(id); }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Out-edges of (node, port), in insertion order.
  [[nodiscard]] const std::vector<EdgeId>& out_edges(NodeId id,
                                                     PortId port) const;
  /// In-edges of (node, port).
  [[nodiscard]] const std::vector<EdgeId>& in_edges(NodeId id,
                                                    PortId port) const;

  /// All root (Const) nodes.
  [[nodiscard]] std::vector<NodeId> roots() const;
  /// All Output nodes.
  [[nodiscard]] std::vector<NodeId> outputs() const;

  /// Looks up a node by name; nullopt when absent or ambiguous.
  [[nodiscard]] std::optional<NodeId> find(const std::string& name) const;

  /// Structural checks: port indices in range, arities respected, every
  /// non-root input port fed by at least one edge, unique edge labels.
  /// Throws GraphError describing the first violation.
  void validate() const;

  [[nodiscard]] std::string to_string() const;

 private:
  friend class GraphBuilder;

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  // adjacency indexed by flattened (node, port)
  std::vector<std::vector<std::vector<EdgeId>>> out_adj_;  // [node][port]
  std::vector<std::vector<std::vector<EdgeId>>> in_adj_;   // [node][port]
  static const std::vector<EdgeId> kNoEdges;
};

std::ostream& operator<<(std::ostream& os, const Graph& g);

/// Incremental graph construction with auto or explicit edge labels.
class GraphBuilder {
 public:
  /// A (node, output port) handle used to wire consumers.
  struct Port {
    NodeId node = 0;
    PortId port = 0;
  };

  NodeId add_node(Node node);

  /// Renames an existing node (reconstruction labels expression-tree roots
  /// with their reaction's name after building the tree).
  void set_name(NodeId node, std::string name);

  /// Node constructors. `name` is optional except Output (its result key).
  Port constant(Value v, std::string name = {});
  NodeId arith(expr::BinOp op, std::string name = {});
  NodeId cmp(expr::BinOp op, std::string name = {});
  /// Immediate-operand forms: one token input, computes `input op imm`.
  NodeId arith_imm(expr::BinOp op, Value imm, std::string name = {});
  NodeId cmp_imm(expr::BinOp op, Value imm, std::string name = {});
  NodeId steer(std::string name = {});
  NodeId inctag(std::string name = {});
  NodeId dectag(std::string name = {});
  NodeId output(std::string name);

  /// Wires src -> (dst, dst_port). Auto-labels the edge "e<N>" when `label`
  /// is empty. Returns the edge id.
  EdgeId connect(Port src, NodeId dst, PortId dst_port,
                 std::string_view label = {});

  /// Convenience single-output port handles.
  [[nodiscard]] static Port out(NodeId node, PortId port = 0) {
    return Port{node, port};
  }
  [[nodiscard]] static Port true_out(NodeId steer_node) {
    return Port{steer_node, kSteerTrue};
  }
  [[nodiscard]] static Port false_out(NodeId steer_node) {
    return Port{steer_node, kSteerFalse};
  }

  /// One-call wiring helpers: create node and connect inputs (auto labels).
  Port arith(expr::BinOp op, Port a, Port b, std::string name = {});
  Port cmp(expr::BinOp op, Port a, Port b, std::string name = {});
  Port arith_imm(expr::BinOp op, Port a, Value imm, std::string name = {});
  Port cmp_imm(expr::BinOp op, Port a, Value imm, std::string name = {});
  NodeId steer(Port data, Port control, std::string name = {});
  Port inctag(Port in, std::string name = {});
  NodeId output(Port in, std::string name);

  /// Finalizes: validates and returns the graph. The builder is consumed.
  [[nodiscard]] Graph build() &&;

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }

 private:
  Graph graph_;
  std::uint32_t next_auto_label_ = 0;
};

}  // namespace gammaflow::dataflow
