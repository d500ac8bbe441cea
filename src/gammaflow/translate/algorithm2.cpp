// Algorithm 2 (per-reaction graph) and the Fig. 4 multiset mapping.
#include <algorithm>
#include <functional>
#include <map>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/translate/gamma_to_df.hpp"

namespace gammaflow::translate {

using dataflow::GraphBuilder;
using dataflow::NodeId;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using gamma::Branch;
using gamma::Element;
using gamma::Pattern;
using gamma::Reaction;

namespace {

/// First binder of a pattern's value field (field 0); Algorithm 2 needs it
/// to know which root feeds which variable.
std::string value_var_of(const Pattern& p, const std::string& rname) {
  const auto& f = p.fields().front();
  if (!f.is_binder()) {
    throw TranslateError("reaction '" + rname +
                         "': pattern value field must be a variable for "
                         "graph generation");
  }
  return f.name();
}

/// Label literal of a pattern (field 1), empty when absent.
std::string label_of(const Pattern& p) {
  if (p.fields().size() >= 2 && !p.fields()[1].is_binder() &&
      p.fields()[1].value().is_str()) {
    return p.fields()[1].value().as_str();
  }
  return {};
}

struct InstanceInfo {
  std::vector<NodeId> roots;
  std::vector<std::string> produced;
  std::vector<std::string> unreacted;
};

/// Compiles `e` to dataflow nodes. `source` resolves a variable to the port
/// currently carrying its value (root output or steer TRUE/FALSE port).
GraphBuilder::Port build_expr(
    GraphBuilder& b, const ExprPtr& e,
    const std::function<GraphBuilder::Port(const std::string&)>& source,
    const std::string& rname) {
  switch (e->kind()) {
    case Expr::Kind::Literal:
      return b.constant(e->literal());
    case Expr::Kind::Var:
      return source(e->var());
    case Expr::Kind::Unary:
      if (e->un_op() == expr::UnOp::Neg) {
        // No dedicated negate node: 0 - x.
        return b.arith(BinOp::Sub, b.constant(Value(std::int64_t{0})),
                       build_expr(b, e->operand(), source, rname));
      }
      throw TranslateError("reaction '" + rname +
                           "': 'not' has no dataflow node equivalent");
    case Expr::Kind::Binary: {
      const BinOp op = e->bin_op();
      if (expr::is_logical(op)) {
        throw TranslateError("reaction '" + rname +
                             "': logical operators are not supported by "
                             "Algorithm 2 graph generation");
      }
      auto lhs = build_expr(b, e->lhs(), source, rname);
      auto rhs = build_expr(b, e->rhs(), source, rname);
      return expr::is_comparison(op) ? b.cmp(op, lhs, rhs)
                                     : b.arith(op, lhs, rhs);
    }
  }
  throw TranslateError("unreachable expression kind");
}

/// Adds one instance of the reaction's graph to `b`. Names/labels are
/// prefixed so several instances coexist (Fig. 4). `seed` supplies root
/// values (one element per pattern) or nullptr for nil placeholders.
InstanceInfo add_reaction_instance(GraphBuilder& b, const Reaction& reaction,
                                   const std::vector<Element>* seed,
                                   const std::string& prefix) {
  const auto& patterns = reaction.patterns();
  const auto& branches = reaction.branches();
  const std::string& rname = reaction.name();

  if (branches.size() > 2 ||
      (branches.size() == 2 &&
       !(branches[0].condition && branches[1].is_else))) {
    throw TranslateError("reaction '" + rname +
                         "': Algorithm 2 supports a single branch or an "
                         "if/else pair");
  }
  if (seed && seed->size() != patterns.size()) {
    throw TranslateError("seed size mismatch for reaction '" + rname + "'");
  }

  InstanceInfo info;

  // Lines 2-4: replace-list elements become root nodes.
  std::map<std::string, std::size_t> var_to_root;  // value var -> pattern idx
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const std::string var = value_var_of(patterns[i], rname);
    std::string name = label_of(patterns[i]);
    if (name.empty()) name = "in" + std::to_string(i + 1);
    const Value v = seed ? (*seed)[i].field(0) : Value();
    info.roots.push_back(b.constant(v, prefix + name).node);
    var_to_root.emplace(var, i);
  }

  auto root_port = [&](const std::string& var) -> GraphBuilder::Port {
    auto it = var_to_root.find(var);
    if (it == var_to_root.end()) {
      throw TranslateError("reaction '" + rname + "': variable '" + var +
                           "' is not a value-field binder (tag/label "
                           "variables cannot flow through Algorithm 2)");
    }
    return GraphBuilder::out(info.roots[it->second]);
  };

  auto emit_outputs = [&](const Branch& branch, const char* tag,
                          const std::function<GraphBuilder::Port(
                              const std::string&)>& source) {
    for (std::size_t k = 0; k < branch.outputs.size(); ++k) {
      const auto& tuple = branch.outputs[k];
      std::string out_name = prefix + tag + std::to_string(k);
      const GraphBuilder::Port value =
          build_expr(b, tuple.front(), source, rname);
      b.output(value, out_name);
      info.produced.push_back(std::move(out_name));
    }
  };

  if (!branches[0].condition) {
    // Lines 18-21: unconditional — arithmetic nodes fed by roots directly.
    emit_outputs(branches[0], "p", root_port);
    return info;
  }

  // Lines 6-12: comparison subgraph + one steer per consumed element.
  const GraphBuilder::Port control =
      build_expr(b, branches[0].condition, root_port, rname);
  std::vector<NodeId> steers(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    steers[i] =
        b.steer(GraphBuilder::out(info.roots[i]), control,
                prefix + "st" + std::to_string(i + 1));
  }
  auto steer_true = [&](const std::string& var) {
    auto it = var_to_root.find(var);
    if (it == var_to_root.end()) {
      throw TranslateError("reaction '" + rname + "': variable '" + var +
                           "' is not a value-field binder");
    }
    return GraphBuilder::true_out(steers[it->second]);
  };
  // Lines 13-16: outputs hang off the TRUE ports.
  emit_outputs(branches[0], "p", steer_true);

  if (branches.size() == 2 && !branches[1].outputs.empty()) {
    // Extension beyond the printed algorithm: an else branch with outputs
    // routes through the FALSE ports (the paper's examples only use
    // "by 0 else", which leaves the FALSE ports dangling).
    auto steer_false = [&](const std::string& var) {
      auto it = var_to_root.find(var);
      if (it == var_to_root.end()) {
        throw TranslateError("reaction '" + rname + "': variable '" + var +
                             "' is not a value-field binder");
      }
      return GraphBuilder::false_out(steers[it->second]);
    };
    emit_outputs(branches[1], "q", steer_false);
  } else if (branches.size() == 1) {
    // No else: when the condition fails the reaction does NOT fire and its
    // elements survive. The FALSE ports re-emit them ("unreacted" path) so
    // one mapped round preserves Gamma semantics.
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      std::string out_name = prefix + "u" + std::to_string(i + 1);
      b.output(GraphBuilder::false_out(steers[i]), out_name);
      info.unreacted.push_back(std::move(out_name));
    }
  }
  return info;
}

/// Element tails (fields past 0) must be literal so mapped rounds can
/// rebuild full elements from computed values.
std::vector<Value> literal_tail(const std::vector<ExprPtr>& tuple,
                                const std::string& rname) {
  std::vector<Value> tail;
  for (std::size_t f = 1; f < tuple.size(); ++f) {
    if (tuple[f]->kind() != Expr::Kind::Literal) {
      throw TranslateError(
          "reaction '" + rname +
          "': mapped execution requires literal label/tag output fields");
    }
    tail.push_back(tuple[f]->literal());
  }
  return tail;
}

}  // namespace

ReactionGraph per_reaction_graph(const Reaction& reaction,
                                 const std::vector<Element>* seed) {
  GraphBuilder b;
  InstanceInfo info = add_reaction_instance(b, reaction, seed, "");
  ReactionGraph out;
  out.roots = std::move(info.roots);
  out.produced_outputs = std::move(info.produced);
  out.unreacted_outputs = std::move(info.unreacted);
  out.graph = std::move(b).build();
  return out;
}

MappingResult instantiate_mapping(const Reaction& reaction,
                                  const gamma::Multiset& m) {
  const std::size_t arity = reaction.arity();
  const auto& elements = m.elements();
  const std::size_t instances = elements.size() / arity;

  GraphBuilder b;
  for (std::size_t i = 0; i < instances; ++i) {
    const std::vector<Element> chunk(elements.begin() +
                                         static_cast<std::ptrdiff_t>(i * arity),
                                     elements.begin() +
                                         static_cast<std::ptrdiff_t>((i + 1) * arity));
    add_reaction_instance(
        b, reaction, &chunk,
        std::string("i").append(std::to_string(i)).append("."));
  }
  // Leftover elements (|M| mod arity) pass through untouched.
  const std::size_t first_left = instances * arity;
  for (std::size_t j = first_left; j < elements.size(); ++j) {
    b.output(b.constant(elements[j].field(0)),
             "left" + std::to_string(j - first_left));
  }

  MappingResult result;
  result.instances = instances;
  result.leftover = elements.size() - first_left;
  result.graph = std::move(b).build();
  return result;
}

MappingRun map_until_fixpoint(const Reaction& reaction,
                              const gamma::Multiset& initial,
                              std::uint64_t seed, std::size_t max_rounds) {
  MappingRun run;
  Rng rng(seed);
  const std::size_t arity = reaction.arity();
  std::vector<Element> current = initial.elements();

  // Precompute output element tails per branch tuple.
  std::vector<std::vector<std::vector<Value>>> tails;  // [branch][tuple]
  for (const Branch& br : reaction.branches()) {
    auto& per_branch = tails.emplace_back();
    for (const auto& tuple : br.outputs) {
      per_branch.push_back(literal_tail(tuple, reaction.name()));
    }
  }

  const dataflow::Interpreter interp;
  // Rebinds to each round's store, which starts it a fresh memo.
  runtime::MatchSite site;
  while (true) {
    // True-fixpoint check through the Gamma matcher (a failed round could
    // just be an unlucky pairing).
    {
      gamma::Store store(gamma::Multiset(current),
                         gamma::FieldSet::of(reaction));
      if (!runtime::MatchPipeline::find(store, reaction, &rng, site)) break;
    }
    if (run.rounds >= max_rounds) {
      throw EngineError("map_until_fixpoint exceeded max_rounds=" +
                        std::to_string(max_rounds));
    }
    ++run.rounds;
    std::shuffle(current.begin(), current.end(), rng);

    const gamma::Multiset round_input{std::vector<Element>(current)};
    const MappingResult mapped = instantiate_mapping(reaction, round_input);
    const dataflow::DfRunResult res = interp.run(mapped.graph);
    run.total_fires += res.fires;

    std::vector<Element> next;
    for (std::size_t i = 0; i < mapped.instances; ++i) {
      const std::string prefix =
          std::string("i").append(std::to_string(i)).append(".");
      // Did this instance react? The unreacted path emits iff it did not.
      bool reacted = true;
      if (!reaction.branches()[0].is_else && reaction.branches().size() == 1 &&
          reaction.branches()[0].condition) {
        const auto it = res.outputs.find(prefix + "u1");
        reacted = (it == res.outputs.end() || it->second.empty());
      }
      if (!reacted) {
        for (std::size_t k = 0; k < arity; ++k) {
          next.push_back(current[i * arity + k]);
        }
        continue;
      }
      // Which branch fired decides which outputs exist ("p" vs "q").
      for (std::size_t br = 0; br < reaction.branches().size(); ++br) {
        const char* tag = br == 0 ? "p" : "q";
        for (std::size_t k = 0; k < reaction.branches()[br].outputs.size();
             ++k) {
          const auto it = res.outputs.find(prefix + tag + std::to_string(k));
          if (it == res.outputs.end() || it->second.empty()) continue;
          std::vector<Value> fields;
          fields.push_back(it->second.front().second);
          for (const Value& t : tails[br][k]) fields.push_back(t);
          next.emplace_back(std::move(fields));
        }
      }
    }
    // Leftovers survive.
    const std::size_t first_left = mapped.instances * arity;
    for (std::size_t j = first_left; j < current.size(); ++j) {
      next.push_back(current[j]);
    }
    current = std::move(next);
  }

  run.result = gamma::Multiset(std::move(current));
  return run;
}

}  // namespace gammaflow::translate
