#include "gammaflow/translate/df_to_gamma.hpp"

#include <set>

#include "gammaflow/common/error.hpp"
#include "gammaflow/dataflow/engine.hpp"

namespace gammaflow::translate {

using dataflow::Edge;
using dataflow::EdgeId;
using dataflow::Graph;
using dataflow::Node;
using dataflow::NodeId;
using dataflow::NodeKind;
using dataflow::PortId;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using gamma::Branch;
using gamma::Element;
using gamma::Pattern;
using gamma::PatternField;
using gamma::Reaction;

namespace {

constexpr const char* kTagVar = "v";

struct PortPattern {
  Pattern pattern;
  /// Disjunction over admissible labels when the port has several producers
  /// (the paper's (x=='A1') or (x=='A11')); null when the label is literal.
  ExprPtr label_condition;
  /// The variable bound to this port's value field (id1, id2, ...).
  std::string value_var;
};

/// Builds the pattern for input port `p` of node `id`.
PortPattern make_port_pattern(const Graph& graph, NodeId id, PortId p,
                              bool tagged) {
  const auto& in = graph.in_edges(id, p);
  if (in.empty()) throw TranslateError("unconnected input port");  // unreachable post-validate

  PortPattern out;
  out.value_var = "id" + std::to_string(p + 1);

  std::vector<PatternField> fields;
  fields.push_back(PatternField::bind(out.value_var));
  if (in.size() == 1) {
    fields.push_back(
        PatternField::literal(Value(graph.edge(in[0]).label)));
  } else {
    // Token-merge port: bind the label and constrain it by disjunction.
    const std::string label_var = p == 0 ? "x" : "y";
    fields.push_back(PatternField::bind(label_var));
    ExprPtr cond;
    for (const EdgeId eid : in) {
      ExprPtr test = Expr::binary(BinOp::Eq, Expr::var(label_var),
                                  Expr::lit(Value(graph.edge(eid).label)));
      cond = cond ? Expr::binary(BinOp::Or, std::move(cond), std::move(test))
                  : std::move(test);
    }
    out.label_condition = std::move(cond);
  }
  if (tagged) fields.push_back(PatternField::bind(kTagVar));
  out.pattern = Pattern(std::move(fields));
  return out;
}

/// One output tuple [value, 'label', tag] for edge `eid`.
std::vector<ExprPtr> make_output(const Graph& graph, EdgeId eid, ExprPtr value,
                                 ExprPtr tag, bool tagged) {
  std::vector<ExprPtr> tuple;
  tuple.push_back(std::move(value));
  tuple.push_back(Expr::lit(Value(graph.edge(eid).label)));
  if (tagged) tuple.push_back(std::move(tag));
  return tuple;
}

/// Rewrites branches to honor a structural label condition: every branch's
/// guard gains `label_cond`, and an else-branch becomes an explicit
/// complement guard so it cannot fire on inadmissible labels.
std::vector<Branch> guard_branches(std::vector<Branch> branches,
                                   const ExprPtr& label_cond) {
  if (!label_cond) return branches;
  ExprPtr first_cond;  // single if/else shape: remember the if condition
  for (Branch& br : branches) {
    if (br.is_else) {
      ExprPtr complement = first_cond
                               ? Expr::unary(expr::UnOp::Not, first_cond)
                               : Expr::lit(Value(true));
      br.is_else = false;
      br.condition =
          Expr::binary(BinOp::And, label_cond, std::move(complement));
    } else if (br.condition) {
      first_cond = br.condition;
      br.condition = Expr::binary(BinOp::And, label_cond, br.condition);
    } else {
      br.condition = label_cond;
    }
  }
  return branches;
}

}  // namespace

GammaConversion dataflow_to_gamma(const Graph& graph,
                                  const DfToGammaOptions& options) {
  bool has_tags = false;
  for (const Node& n : graph.nodes()) {
    if (n.kind == NodeKind::IncTag || n.kind == NodeKind::DecTag) {
      has_tags = true;
      break;
    }
  }
  bool tagged = true;
  switch (options.shape) {
    case DfToGammaOptions::Shape::Auto: tagged = has_tags; break;
    case DfToGammaOptions::Shape::Triples: tagged = true; break;
    case DfToGammaOptions::Shape::Pairs:
      if (has_tags) {
        throw TranslateError(
            "pairs shape cannot express inctag/dectag; use Triples");
      }
      tagged = false;
      break;
  }

  GammaConversion result;
  result.tagged = tagged;

  const ExprPtr tag_same = Expr::var(kTagVar);
  const ExprPtr tag_inc =
      Expr::binary(BinOp::Add, tag_same, Expr::lit(Value(std::int64_t{1})));
  const ExprPtr tag_dec =
      Expr::binary(BinOp::Sub, tag_same, Expr::lit(Value(std::int64_t{1})));

  std::vector<Reaction> reactions;
  std::set<std::string> used_names;

  for (NodeId id = 0; id < graph.node_count(); ++id) {
    const Node& node = graph.node(id);
    if (node.kind == NodeKind::Const) {
      // Line 9: root emissions seed the initial multiset.
      const dataflow::Firing f = dataflow::fire_node(node, {}, 0);
      for (const EdgeId eid : graph.out_edges(id, 0)) {
        const std::string& label = graph.edge(eid).label;
        result.initial.add(tagged ? Element::tagged(f.value, label, 0)
                                  : Element::labeled(f.value, label));
      }
      continue;
    }
    if (node.kind == NodeKind::Output) {
      // Every producer edge can deliver this output's token (if-joins merge
      // several); all their labels are observable.
      for (const EdgeId eid : graph.in_edges(id, 0)) {
        result.output_labels[node.name].push_back(graph.edge(eid).label);
      }
      continue;
    }

    // Patterns (replace list), one per input port.
    std::vector<PortPattern> ports;
    const std::size_t in_arity = dataflow::input_arity(node);
    for (PortId p = 0; p < in_arity; ++p) {
      ports.push_back(make_port_pattern(graph, id, p, tagged));
    }
    ExprPtr label_cond;
    for (const PortPattern& pp : ports) {
      if (!pp.label_condition) continue;
      label_cond = label_cond ? Expr::binary(BinOp::And, label_cond,
                                             pp.label_condition)
                              : pp.label_condition;
    }

    std::vector<Branch> branches;
    switch (node.kind) {
      case NodeKind::Arith: {
        // Lines 29-33. An immediate right operand becomes a literal in the
        // reaction body (the paper's R18: by [id1 - 1, 'B11', v]).
        const ExprPtr rhs = node.has_immediate
                                ? Expr::lit(node.constant)
                                : Expr::var(ports[1].value_var);
        const ExprPtr value =
            Expr::binary(node.op, Expr::var(ports[0].value_var), rhs);
        std::vector<std::vector<ExprPtr>> outputs;
        for (const EdgeId eid : graph.out_edges(id, 0)) {
          outputs.push_back(make_output(graph, eid, value, tag_same, tagged));
        }
        branches.push_back(Branch::unconditional(std::move(outputs)));
        break;
      }
      case NodeKind::Cmp: {
        // Lines 23-28: [1,...] if (x0 op x1), [0,...] else. An immediate
        // right operand yields the paper's R14 condition "if id1 > 0".
        const ExprPtr rhs = node.has_immediate
                                ? Expr::lit(node.constant)
                                : Expr::var(ports[1].value_var);
        const ExprPtr cond =
            Expr::binary(node.op, Expr::var(ports[0].value_var), rhs);
        std::vector<std::vector<ExprPtr>> ones;
        std::vector<std::vector<ExprPtr>> zeros;
        for (const EdgeId eid : graph.out_edges(id, 0)) {
          ones.push_back(make_output(graph, eid,
                                     Expr::lit(Value(std::int64_t{1})),
                                     tag_same, tagged));
          zeros.push_back(make_output(graph, eid,
                                      Expr::lit(Value(std::int64_t{0})),
                                      tag_same, tagged));
        }
        branches.push_back(Branch::when(cond, std::move(ones)));
        branches.push_back(Branch::otherwise(std::move(zeros)));
        break;
      }
      case NodeKind::Steer: {
        // Lines 13-19: route the data value by the boolean operand.
        const ExprPtr data = Expr::var(ports[dataflow::kSteerData].value_var);
        const ExprPtr cond =
            Expr::binary(BinOp::Eq,
                         Expr::var(ports[dataflow::kSteerControl].value_var),
                         Expr::lit(Value(std::int64_t{1})));
        std::vector<std::vector<ExprPtr>> true_out;
        for (const EdgeId eid : graph.out_edges(id, dataflow::kSteerTrue)) {
          true_out.push_back(make_output(graph, eid, data, tag_same, tagged));
        }
        std::vector<std::vector<ExprPtr>> false_out;
        for (const EdgeId eid : graph.out_edges(id, dataflow::kSteerFalse)) {
          false_out.push_back(make_output(graph, eid, data, tag_same, tagged));
        }
        branches.push_back(Branch::when(cond, std::move(true_out)));
        branches.push_back(Branch::otherwise(std::move(false_out)));
        break;
      }
      case NodeKind::IncTag:
      case NodeKind::DecTag: {
        // Lines 21-22: same value, new label, tag +/- 1.
        const ExprPtr tag_expr =
            node.kind == NodeKind::IncTag ? tag_inc : tag_dec;
        const ExprPtr value = Expr::var(ports[0].value_var);
        std::vector<std::vector<ExprPtr>> outputs;
        for (const EdgeId eid : graph.out_edges(id, 0)) {
          outputs.push_back(make_output(graph, eid, value, tag_expr, tagged));
        }
        branches.push_back(Branch::unconditional(std::move(outputs)));
        break;
      }
      case NodeKind::Const:
      case NodeKind::Output:
        break;  // handled above
    }

    branches = guard_branches(std::move(branches), label_cond);

    std::string name = node.name;
    if (name.empty() || used_names.contains(name)) {
      name = std::string("R").append(std::to_string(id));
    }
    used_names.insert(name);

    std::vector<Pattern> patterns;
    patterns.reserve(ports.size());
    for (PortPattern& pp : ports) patterns.push_back(std::move(pp.pattern));
    reactions.emplace_back(std::move(name), std::move(patterns),
                           std::move(branches));
  }

  result.program = gamma::Program(std::move(reactions));
  return result;
}

}  // namespace gammaflow::translate
