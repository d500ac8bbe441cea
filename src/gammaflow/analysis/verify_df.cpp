#include "gammaflow/analysis/verify_df.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace gammaflow::analysis {

using dataflow::Edge;
using dataflow::EdgeId;
using dataflow::Graph;
using dataflow::Node;
using dataflow::NodeId;
using dataflow::NodeKind;

namespace {

std::string node_ref(const Graph& g, NodeId id) {
  const std::string& name = g.node(id).name;
  if (!name.empty()) return name;
  return std::string("#").append(std::to_string(id));
}

void add(LintReport& report, Severity severity, std::string check,
         std::string where, std::string message) {
  report.findings.push_back(Finding{severity, std::move(check),
                                    std::move(where), std::move(message)});
}

/// Tag-offset abstract value: offsets (relative to the Const roots' tag 0)
/// a node's tokens may carry. Empty set = no token ever arrives (bottom);
/// `top` = any offset (the widening that keeps loops silent).
struct TagOffsets {
  std::set<int> offsets;
  bool top = false;

  bool merge(const TagOffsets& o) {
    if (top) return false;
    if (o.top) {
      top = true;
      offsets.clear();
      return true;
    }
    bool changed = false;
    for (const int v : o.offsets) changed |= offsets.insert(v).second;
    if (offsets.size() > 4) {  // widen: more than a loop nest's worth
      top = true;
      offsets.clear();
      changed = true;
    }
    return changed;
  }
  [[nodiscard]] TagOffsets shifted(int delta) const {
    if (top || delta == 0) return *this;
    TagOffsets out;
    for (const int v : offsets) out.offsets.insert(v + delta);
    return out;
  }
  /// Provably disjoint: both finite, non-empty, no common offset.
  [[nodiscard]] bool disjoint(const TagOffsets& o) const {
    if (top || o.top || offsets.empty() || o.offsets.empty()) return false;
    return std::none_of(offsets.begin(), offsets.end(),
                        [&](int v) { return o.offsets.contains(v); });
  }
  [[nodiscard]] std::string to_string() const {
    if (top) return "*";
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const int v : offsets) {
      os << (first ? "" : ",") << v;
      first = false;
    }
    os << '}';
    return os.str();
  }
};

int tag_delta(NodeKind kind) {
  if (kind == NodeKind::IncTag) return 1;
  if (kind == NodeKind::DecTag) return -1;
  return 0;
}

/// Saturating token-count interval per port (acyclic graphs only).
struct TokenRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  static constexpr std::uint64_t kCap = 1u << 20;
  void add(TokenRange o) {
    lo = std::min(lo + o.lo, kCap);
    hi = std::min(hi + o.hi, kCap);
  }
};

/// True when the directed graph restricted to `keep` has a cycle; names a
/// node on the first cycle found via `witness`.
bool has_cycle(const std::vector<std::vector<NodeId>>& succ,
               const std::vector<bool>& keep, NodeId* witness) {
  const std::size_t n = succ.size();
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> color(n, White);
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (!keep[root] || color[root] != White) continue;
    stack.emplace_back(static_cast<NodeId>(root), 0);
    color[root] = Grey;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      if (next < succ[node].size()) {
        const NodeId to = succ[node][next++];
        if (!keep[to]) continue;
        if (color[to] == Grey) {
          if (witness) *witness = to;
          return true;
        }
        if (color[to] == White) {
          color[to] = Grey;
          stack.emplace_back(to, 0);
        }
      } else {
        color[node] = Black;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace

LintReport verify_graph(const Graph& graph) {
  LintReport report;
  const std::size_t n = graph.node_count();

  // The graph is structurally valid (GraphBuilder::build() checked it), so
  // its adjacency is safe to walk. Node-level successors, one per edge.
  std::vector<std::vector<NodeId>> succ(n);
  for (const Edge& e : graph.edges()) succ[e.src].push_back(e.dst);
  const auto in_arity = [&](std::size_t id) {
    return dataflow::input_arity(graph.node(static_cast<NodeId>(id)));
  };
  using EdgeList = std::vector<EdgeId>;
  const auto in_edges = [&](std::size_t id, std::size_t port) -> const EdgeList& {
    return graph.in_edges(static_cast<NodeId>(id),
                          static_cast<dataflow::PortId>(port));
  };

  // Reachability from the Const roots.
  std::vector<bool> reachable(n, false);
  {
    std::deque<NodeId> queue;
    for (std::size_t id = 0; id < n; ++id) {
      if (graph.node(static_cast<NodeId>(id)).kind == NodeKind::Const) {
        reachable[id] = true;
        queue.push_back(static_cast<NodeId>(id));
      }
    }
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      for (const NodeId to : succ[at]) {
        if (!reachable[to]) {
          reachable[to] = true;
          queue.push_back(to);
        }
      }
    }
    for (std::size_t id = 0; id < n; ++id) {
      if (!reachable[id]) {
        add(report, Severity::Warning, "df-unreachable",
            node_ref(graph, static_cast<NodeId>(id)),
            "no path from any Const root: the node never receives a token");
      }
    }
  }

  // Tag safety along back-edges: a cycle that passes no IncTag/DecTag reuses
  // the same iteration tag every trip around.
  std::vector<bool> all(n, true);
  std::vector<bool> non_tagging(n);
  for (std::size_t id = 0; id < n; ++id) {
    non_tagging[id] = tag_delta(graph.node(static_cast<NodeId>(id)).kind) == 0;
  }
  const bool cyclic = has_cycle(succ, all, nullptr);
  NodeId cycle_witness = 0;
  if (has_cycle(succ, non_tagging, &cycle_witness)) {
    add(report, Severity::Error, "df-untagged-cycle",
        node_ref(graph, cycle_witness),
        "cycle through this node passes no IncTag/DecTag: successive loop "
        "waves would collide on the same iteration tag");
  }

  // Steer control-port discipline.
  for (std::size_t id = 0; id < n; ++id) {
    if (graph.node(static_cast<NodeId>(id)).kind != NodeKind::Steer) continue;
    for (const EdgeId k : in_edges(id, dataflow::kSteerControl)) {
      const Node& src = graph.node(graph.edge(k).src);
      if (src.kind == NodeKind::Const && !src.constant.is_bool() &&
          !src.constant.is_int()) {
        add(report, Severity::Error, "df-steer-control",
            node_ref(graph, static_cast<NodeId>(id)),
            "control input fed by Const of kind " +
                std::string(to_string(src.constant.kind())) +
                ", which can never satisfy truthy()");
      } else if (src.kind == NodeKind::Arith) {
        add(report, Severity::Warning, "df-steer-control",
            node_ref(graph, static_cast<NodeId>(id)),
            "control input fed by an Arith node; a Cmp producing 0/1 is the "
            "idiomatic control source");
      }
    }
  }

  // Tag-offset abstract interpretation: which iteration-tag offsets can each
  // node's tokens carry? A join whose ports hold provably disjoint finite
  // offset sets can never see matching tags.
  std::vector<TagOffsets> out_offsets(n);
  for (std::size_t id = 0; id < n; ++id) {
    if (graph.node(static_cast<NodeId>(id)).kind == NodeKind::Const) {
      out_offsets[id].offsets.insert(0);
    }
  }
  for (std::size_t round = 0, changed = 1; changed && round < 8 * n + 8;
       ++round) {
    changed = 0;
    for (std::size_t id = 0; id < n; ++id) {
      const Node& node = graph.node(static_cast<NodeId>(id));
      if (node.kind == NodeKind::Const) continue;
      TagOffsets in;
      for (std::size_t p = 0; p < in_arity(id); ++p) {
        for (const EdgeId k : in_edges(id, p)) {
          in.merge(out_offsets[graph.edge(k).src]);
        }
      }
      changed |= out_offsets[id].merge(in.shifted(tag_delta(node.kind)))
                     ? 1u
                     : 0u;
    }
  }
  std::vector<bool> tag_mismatch(n, false);
  for (std::size_t id = 0; id < n; ++id) {
    if (in_arity(id) < 2) continue;
    std::vector<TagOffsets> per_port(in_arity(id));
    for (std::size_t p = 0; p < per_port.size(); ++p) {
      for (const EdgeId k : in_edges(id, p)) {
        per_port[p].merge(out_offsets[graph.edge(k).src]);
      }
    }
    for (std::size_t p = 0; p < per_port.size() && !tag_mismatch[id]; ++p) {
      for (std::size_t q = p + 1; q < per_port.size(); ++q) {
        if (per_port[p].disjoint(per_port[q])) {
          tag_mismatch[id] = true;
          add(report, Severity::Warning, "df-tag-mismatch",
              node_ref(graph, static_cast<NodeId>(id)),
              "input ports can only carry disjoint iteration-tag offsets " +
                  per_port[p].to_string() + " vs " + per_port[q].to_string() +
                  ": tokens never match and the node never fires");
          break;
        }
      }
    }
  }

  // Dead nodes: reachable but no path onward to any Output.
  const std::vector<NodeId> outputs = graph.outputs();
  if (!outputs.empty()) {
    std::vector<bool> useful(n, false);
    std::vector<std::vector<NodeId>> pred(n);
    for (std::size_t id = 0; id < n; ++id) {
      for (const NodeId to : succ[id]) {
        pred[to].push_back(static_cast<NodeId>(id));
      }
    }
    std::deque<NodeId> queue(outputs.begin(), outputs.end());
    for (const NodeId o : outputs) useful[o] = true;
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      for (const NodeId from : pred[at]) {
        if (!useful[from]) {
          useful[from] = true;
          queue.push_back(from);
        }
      }
    }
    for (std::size_t id = 0; id < n; ++id) {
      if (reachable[id] && !useful[id]) {
        add(report, Severity::Warning, "df-dead-node",
            node_ref(graph, static_cast<NodeId>(id)),
            "no path to any Output node: every token it produces is "
            "discarded");
      }
    }
  }

  // Token-balance deadlock detection — acyclic graphs only (cycles recycle
  // tokens through IncTag, which the interval model cannot bound; the tag
  // discipline above covers them).
  if (!cyclic) {
    // Topological order via Kahn on node-level adjacency.
    std::vector<std::size_t> indegree(n, 0);
    for (std::size_t id = 0; id < n; ++id) {
      for (const NodeId to : succ[id]) ++indegree[to];
    }
    std::deque<NodeId> queue;
    for (std::size_t id = 0; id < n; ++id) {
      if (indegree[id] == 0) queue.push_back(static_cast<NodeId>(id));
    }
    std::vector<NodeId> topo;
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      topo.push_back(at);
      for (const NodeId to : succ[at]) {
        if (--indegree[to] == 0) queue.push_back(to);
      }
    }
    std::vector<TokenRange> firings(n);
    std::vector<std::vector<TokenRange>> in_tokens(n);
    for (std::size_t id = 0; id < n; ++id) {
      in_tokens[id].resize(in_arity(id));
    }
    for (const NodeId at : topo) {
      const Node& node = graph.node(at);
      if (node.kind == NodeKind::Const) {
        firings[at] = TokenRange{1, 1};
      } else if (in_arity(at) == 0) {
        firings[at] = TokenRange{0, 0};
      } else {
        TokenRange f{TokenRange::kCap, TokenRange::kCap};
        for (std::size_t p = 0; p < in_arity(at); ++p) {
          TokenRange got;
          for (const EdgeId k : in_edges(at, p)) {
            const Edge& e = graph.edge(k);
            TokenRange carried = firings[e.src];
            // A steer output port passes only the tokens routed its way:
            // anywhere between none and all firings.
            if (graph.node(e.src).kind == NodeKind::Steer) carried.lo = 0;
            got.add(carried);
          }
          in_tokens[at][p] = got;
          f.lo = std::min(f.lo, got.lo);
          f.hi = std::min(f.hi, got.hi);
        }
        // A provable tag mismatch means matching NEVER happens regardless of
        // how many tokens arrive — the node's firing count is exactly zero
        // (disjointness is proven, not approximated), which is what lets a
        // downstream join's starvation surface as df-deadlock.
        if (tag_mismatch[at]) f = TokenRange{0, 0};
        firings[at] = f;
      }
    }
    for (std::size_t id = 0; id < n; ++id) {
      if (in_tokens[id].size() < 2) continue;
      bool reported = false;
      for (std::size_t p = 0; p < in_tokens[id].size() && !reported; ++p) {
        for (std::size_t q = 0; q < in_tokens[id].size(); ++q) {
          if (p == q) continue;
          const TokenRange& a = in_tokens[id][p];
          const TokenRange& b = in_tokens[id][q];
          if (a.lo > 0 && b.hi == 0) {
            add(report, Severity::Error, "df-deadlock",
                node_ref(graph, static_cast<NodeId>(id)),
                "input port " + std::to_string(q) +
                    " never receives a token while port " + std::to_string(p) +
                    " does: the join starves forever");
            reported = true;
            break;
          }
          if (p < q && a.lo > b.hi) {
            add(report, Severity::Info, "df-token-imbalance",
                node_ref(graph, static_cast<NodeId>(id)),
                "input ports receive provably unequal token counts ([" +
                    std::to_string(a.lo) + "," + std::to_string(a.hi) +
                    "] vs [" + std::to_string(b.lo) + "," +
                    std::to_string(b.hi) + "]): leftover tokens linger");
            reported = true;
            break;
          }
        }
      }
    }
  }

  // Discarded output ports (legal; Fig. 2 leaves steer FALSE ports open).
  for (std::size_t id = 0; id < n; ++id) {
    const Node& node = graph.node(static_cast<NodeId>(id));
    if (!reachable[id]) continue;
    for (std::size_t p = 0; p < dataflow::output_arity(node.kind); ++p) {
      if (graph.out_edges(static_cast<NodeId>(id),
                          static_cast<dataflow::PortId>(p))
              .empty()) {
        add(report, Severity::Info, "df-discarded-port",
            node_ref(graph, static_cast<NodeId>(id)),
            std::string(dataflow::to_string(node.kind)) + " output port " +
                std::to_string(p) + " has no consumer: its tokens are "
                "discarded on arrival");
      }
    }
  }

  return report;
}

}  // namespace gammaflow::analysis
