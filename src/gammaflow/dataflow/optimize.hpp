// Graph optimization. Observable-preserving: every Output node's token
// stream is unchanged; dead regions (the paper's literal Fig. 2 discards its
// whole computation through unconnected FALSE ports!) and foldable
// arithmetic disappear.
//
//   * identity bypass — an immediate x+0, x-0, x*1, x/1 with one producer
//     forwards its input: its consumers rewire to that producer.
//   * constant folding — an Arith/Cmp node whose every input port has one
//     producer that is, through bypassed nodes, a Const or a folded node
//     computes one tag-0 value; it becomes a Const. Nodes that would throw
//     (1/0) are left for runtime.
//   * dead node elimination — nodes with no path to any Output produce
//     tokens nobody can observe; remove them (with their edges).
//
// One worklist pass folds to the fixed point: a node that folds re-examines
// its consumers, and a bypassed node's source is resolved once. Then one
// reverse reachability from the Outputs and one rebuild. O(nodes + edges).
#pragma once

#include <cstddef>

#include "gammaflow/dataflow/graph.hpp"

namespace gammaflow::dataflow {

struct OptimizeResult {
  Graph graph;
  std::size_t folded = 0;    // Arith/Cmp nodes replaced by a Const
  std::size_t bypassed = 0;  // identity nodes removed
  std::size_t removed = 0;   // nodes with no path to an Output, folded or not
  /// The pass's work, exact on every host: each node once in each of the
  /// three whole-graph loops (marking, resolving, rebuilding), plus one
  /// visit per step of a bypass walk and per worklist or stack pop.
  std::size_t visits = 0;
};

/// Optimizes `graph`. The result validates; a graph whose outputs are
/// unreachable (or that has no outputs) legitimately optimizes to only its
/// Output nodes' live cone — possibly the empty graph.
[[nodiscard]] OptimizeResult optimize(const Graph& graph);

}  // namespace gammaflow::dataflow
