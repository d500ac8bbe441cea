#include "gammaflow/dataflow/optimize.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/match_store.hpp"

namespace gammaflow::dataflow {
namespace {

using Port = GraphBuilder::Port;

/// What becomes of a node. An identity node is Bypass until its source is
/// resolved (Resolving while a walk passes through it), then Forward.
enum class State : std::uint8_t { Keep, Fold, Bypass, Resolving, Forward };

bool is_identity_immediate(const Node& n) {
  if (!n.has_immediate || n.kind != NodeKind::Arith) return false;
  switch (n.op) {
    case expr::BinOp::Add:
    case expr::BinOp::Sub:
      return n.constant == Value(std::int64_t{0});
    case expr::BinOp::Mul:
    case expr::BinOp::Div:
      return n.constant == Value(std::int64_t{1});
    default:
      return false;
  }
}

Port producer(const Graph& g, EdgeId eid) {
  const Edge& e = g.edge(eid);
  return Port{e.src, e.src_port};
}

}  // namespace

OptimizeResult optimize(const Graph& g) {
  const auto n = static_cast<NodeId>(g.node_count());
  OptimizeResult result;
  result.visits = 3 * std::size_t{n};  // the three whole-graph loops
  std::vector<State> state(n, State::Keep);
  for (NodeId id = 0; id < n; ++id) {
    if (is_identity_immediate(g.node(id)) && g.in_edges(id, 0).size() == 1) {
      state[id] = State::Bypass;
    }
  }

  // Each bypassed node's surviving source, found by one walk down its chain
  // of bypassed producers and memoized for every node on the walk. A cycle
  // of identity nodes has no source outside itself: the node where the walk
  // comes back is kept instead.
  std::vector<Port> source(n);
  std::vector<NodeId> path;
  for (NodeId id = 0; id < n; ++id) {
    Port p{id, 0};
    while (state[p.node] == State::Bypass) {
      ++result.visits;
      state[p.node] = State::Resolving;
      path.push_back(p.node);
      p = producer(g, g.in_edges(p.node, 0)[0]);
    }
    if (state[p.node] == State::Forward) p = source[p.node];
    if (state[p.node] == State::Resolving) state[p.node] = State::Keep;
    for (const NodeId b : path) {
      if (state[b] != State::Resolving) continue;
      state[b] = State::Forward;
      source[b] = p;
    }
    path.clear();
  }
  const auto resolve = [&](Port p) {
    return state[p.node] == State::Forward ? source[p.node] : p;
  };

  // Folding to the fixed point: every kept Arith/Cmp node is examined once,
  // and again whenever one of its producers becomes constant. A node that
  // folds queues its consumers; a bypassed node is queued only by its
  // producer's change, which is its source's fold, and passes it on.
  std::vector<Value> folded(n);
  const auto constant = [&](Port p, Value& out) {
    if (state[p.node] == State::Fold) {
      out = folded[p.node];
      return true;
    }
    if (g.node(p.node).kind != NodeKind::Const) return false;
    out = g.node(p.node).constant;
    return true;
  };
  std::vector<NodeId> work;
  for (NodeId id = n; id-- > 0;) {
    if (state[id] != State::Forward) work.push_back(id);
  }
  std::array<Value, kMaxInputs> inputs;
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    ++result.visits;
    if (state[id] == State::Fold) continue;
    const Node& node = g.node(id);
    if (node.kind != NodeKind::Arith && node.kind != NodeKind::Cmp) continue;
    if (state[id] == State::Keep) {
      const std::size_t arity = input_arity(node);
      bool foldable = true;
      for (PortId p = 0; p < arity && foldable; ++p) {
        const auto& in = g.in_edges(id, p);
        foldable =
            in.size() == 1 && constant(resolve(producer(g, in[0])), inputs[p]);
      }
      if (!foldable) continue;
      try {
        folded[id] = fire_node(node, std::span(inputs.data(), arity), 0).value;
      } catch (const Error&) {
        continue;  // would throw at runtime (e.g. 1/0): preserve for the run
      }
      state[id] = State::Fold;
      ++result.folded;
    }
    for (const EdgeId eid : g.out_edges(id, 0)) work.push_back(g.edge(eid).dst);
  }

  // Liveness: reverse reachability from the Outputs over the rewritten
  // graph, where a folded node has no inputs and a bypassed one is skipped.
  std::vector<bool> live(n, false);
  std::vector<NodeId> stack = g.outputs();
  for (const NodeId out : stack) live[out] = true;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    ++result.visits;
    if (state[id] == State::Fold) continue;
    for (PortId p = 0; p < input_arity(g.node(id)); ++p) {
      for (const EdgeId eid : g.in_edges(id, p)) {
        const NodeId src = resolve(producer(g, eid)).node;
        if (!live[src]) {
          live[src] = true;
          stack.push_back(src);
        }
      }
    }
  }

  // Rebuild. Folded nodes become Consts; bypassed nodes vanish (their
  // consumers rewire to the resolved source); dead nodes and their edges
  // vanish.
  GraphBuilder b;
  std::vector<NodeId> remap(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (state[id] == State::Forward) {
      ++result.bypassed;
    } else if (!live[id]) {
      ++result.removed;
    } else if (state[id] == State::Fold) {
      Node c;
      c.kind = NodeKind::Const;
      c.constant = std::move(folded[id]);
      c.name = g.node(id).name;
      remap[id] = b.add_node(std::move(c));
    } else {
      remap[id] = b.add_node(g.node(id));
    }
  }
  for (const Edge& e : g.edges()) {
    if (!live[e.dst] || state[e.dst] != State::Keep) continue;
    const Port src = resolve(Port{e.src, e.src_port});
    b.connect(Port{remap[src.node], src.port}, remap[e.dst], e.dst_port,
              e.label);
  }
  result.graph = std::move(b).build();
  return result;
}

}  // namespace gammaflow::dataflow
