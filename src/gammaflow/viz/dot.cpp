// DOT writers, one per graph kind. The dataflow graph draws the paper's
// shape conventions; the two Gamma-side writers render the SAME analysis
// the optimizer and `distrib --affinity` consume — InterferenceReport — so
// what the picture shows is what those passes act on.
#include <cstddef>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gammaflow/viz/viz.hpp"

namespace gammaflow::viz {
namespace {

std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* shape(dataflow::NodeKind kind) {
  using dataflow::NodeKind;
  switch (kind) {
    case NodeKind::Const: return "square";
    case NodeKind::Arith:
    case NodeKind::Cmp: return "circle";
    case NodeKind::Steer: return "triangle";
    case NodeKind::IncTag:
    case NodeKind::DecTag: return "diamond";
    case NodeKind::Output: return "doublecircle";
  }
  return "circle";
}

/// The node's DOT label, already escaped: operator (or constant) text, then
/// the node name on a second line when it has one.
std::string node_label(const dataflow::Node& n) {
  using dataflow::NodeKind;
  std::ostringstream os;
  switch (n.kind) {
    case NodeKind::Const: os << n.constant; break;
    case NodeKind::Arith:
    case NodeKind::Cmp:
      os << expr::to_string(n.op);
      if (n.has_immediate) os << n.constant;
      break;
    case NodeKind::Steer: os << "steer"; break;
    case NodeKind::IncTag: os << "inctag"; break;
    case NodeKind::DecTag: os << "dectag"; break;
    case NodeKind::Output: os << "out"; break;
  }
  std::string label = dot_escape(os.str());
  if (!n.name.empty()) label += "\\n" + dot_escape(n.name);
  return label;
}

// Per-class pastel fills, cycled when class_count exceeds the palette.
constexpr const char* kClassFills[] = {"#e3f2fd", "#e8f5e9", "#fff3e0",
                                       "#f3e5f5", "#e0f7fa", "#fbe9e7",
                                       "#f1f8e9", "#ede7f6"};
constexpr std::size_t kClassFillCount =
    sizeof(kClassFills) / sizeof(kClassFills[0]);

const char* class_fill(std::size_t cls) {
  return kClassFills[cls % kClassFillCount];
}

/// Stage index of each reaction, in report order (program order, all stages).
std::vector<std::size_t> stage_of(const gamma::Program& program) {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < program.stages().size(); ++s) {
    for (std::size_t k = 0; k < program.stages()[s].size(); ++k) {
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

void write_dot(std::ostream& os, const dataflow::Graph& graph,
               const std::string& title) {
  using dataflow::NodeId;
  os << "digraph \"" << dot_escape(title) << "\" {\n";
  os << "  rankdir=TB;\n";
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const dataflow::Node& n = graph.node(id);
    os << "  n" << id << " [shape=" << shape(n.kind) << ", label=\""
       << node_label(n) << "\"];\n";
  }
  for (const dataflow::Edge& e : graph.edges()) {
    os << "  n" << e.src << " -> n" << e.dst << " [label=\""
       << dot_escape(e.label) << '"';
    if (graph.node(e.src).kind == dataflow::NodeKind::Steer) {
      os << (e.src_port == dataflow::kSteerTrue ? ", taillabel=\"T\""
                                                : ", taillabel=\"F\"");
    }
    os << "];\n";
  }
  os << "}\n";
}

std::string to_dot(const dataflow::Graph& graph, const std::string& title) {
  std::ostringstream os;
  write_dot(os, graph, title);
  return os.str();
}

void write_interference_dot(std::ostream& os, const gamma::Program& program,
                            const analysis::InterferenceReport& report,
                            const std::string& title) {
  const std::vector<std::size_t> stages = stage_of(program);
  os << "digraph \"" << dot_escape(title) << "\" {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, style=\"filled,rounded\", fontsize=11];\n";
  for (std::size_t c = 0; c < report.class_count; ++c) {
    os << "  subgraph cluster_class" << c << " {\n"
       << "    label=\"class " << c << "\";\n"
       << "    style=dashed;\n";
    for (std::size_t i = 0; i < report.reactions.size(); ++i) {
      if (report.class_of[i] != c) continue;
      os << "    r" << i << " [label=\"" << dot_escape(report.reactions[i]);
      if (i < stages.size() && program.stage_count() > 1) {
        os << " (stage " << stages[i] << ")";
      }
      os << "\\n" << dot_escape(report.footprints[i].to_string())
         << "\", fillcolor=\"" << class_fill(c) << "\"];\n";
    }
    os << "  }\n";
  }
  for (const auto& e : report.typed_edges) {
    if (e.compete) {
      os << "  r" << e.r1 << " -> r" << e.r2
         << " [dir=none, color=\"#c62828\", penwidth="
         << ((e.feeds_12 || e.feeds_21) ? "2.0" : "1.2")
         << ", label=\"compete\"];\n";
    }
    if (e.feeds_12) {
      os << "  r" << e.r1 << " -> r" << e.r2
         << " [style=dashed, color=\"#1565c0\", label=\"feed\"];\n";
    }
    if (e.feeds_21) {
      os << "  r" << e.r2 << " -> r" << e.r1
         << " [style=dashed, color=\"#1565c0\", label=\"feed\"];\n";
    }
  }
  os << "  label=\"verdict: " << to_string(report.verdict) << "\";\n";
  os << "}\n";
}

void write_classes_dot(std::ostream& os, const gamma::Program& program,
                       const analysis::InterferenceReport& report,
                       const std::string& title) {
  const std::vector<std::size_t> stages = stage_of(program);
  // Labels each class routes (the cluster placement hint), inverted from
  // label -> class.
  std::map<std::size_t, std::set<std::string>> class_labels;
  for (const auto& [label, cls] : report.label_affinity()) {
    class_labels[cls].insert(label);
  }
  os << "digraph \"" << dot_escape(title) << "\" {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, style=filled, fontsize=11];\n";
  for (std::size_t c = 0; c < report.class_count; ++c) {
    os << "  subgraph cluster_class" << c << " {\n"
       << "    label=\"class " << c << "\";\n"
       << "    style=filled;\n    fillcolor=\"" << class_fill(c) << "\";\n";
    for (std::size_t i = 0; i < report.reactions.size(); ++i) {
      if (report.class_of[i] != c) continue;
      os << "    r" << i << " [label=\"" << dot_escape(report.reactions[i]);
      if (i < stages.size() && program.stage_count() > 1) {
        os << "\\nstage " << stages[i];
      }
      os << "\", fillcolor=white];\n";
    }
    const auto it = class_labels.find(c);
    if (it != class_labels.end()) {
      os << "    labels" << c << " [shape=note, fillcolor=white, label=\"";
      bool first = true;
      for (const std::string& l : it->second) {
        if (!first) os << "\\n";
        os << dot_escape(l);
        first = false;
      }
      os << "\"];\n";
    }
    os << "  }\n";
  }
  os << "}\n";
}

}  // namespace gammaflow::viz
