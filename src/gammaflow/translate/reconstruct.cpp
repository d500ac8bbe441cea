// reconstruct_graph: Gamma program + initial multiset -> dataflow graph.
//
// The paper sketches the recognition rules in §III-A2 and leaves "expliciting
// the transformations" as future work (§IV); this file is that algorithm:
//
//   reaction shape                                         node kind
//   ------------------------------------------------------ ---------
//   1 pattern, outputs [x,'L',v+1]                          IncTag
//   1 pattern, outputs [x,'L',v-1]                          DecTag
//   2 patterns, by <data> if ctrl==1 / by ... else          Steer
//   2 patterns, by [1,...] if (a op b) / by [0,...] else    Cmp
//   k patterns, unconditional arithmetic outputs            expression tree
//                                                           of Arith nodes
//
// Label disjunctions ((x=='A1') or (x=='A11')) are stripped from conditions
// first — they are structural (token-merge ports), not behavioral. Initial
// multiset elements become Const roots; labels nothing consumes become
// Output sinks (e.g. 'm' in Fig. 1).
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "gammaflow/common/error.hpp"
#include "gammaflow/translate/gamma_to_df.hpp"

namespace gammaflow::translate {

using dataflow::GraphBuilder;
using dataflow::NodeId;
using dataflow::PortId;
using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using gamma::Branch;
using gamma::Element;
using gamma::Pattern;
using gamma::Reaction;

namespace {

[[noreturn]] void fail(const Reaction& r, const std::string& why) {
  throw TranslateError("cannot reconstruct reaction '" + r.name() + "': " + why);
}

// ---------- condition dissection ----------

/// Is `e` the literal disjunction (var=='L1') or (var=='L2') or ... ?
/// Returns the labels when it is (and fills var_name).
std::optional<std::vector<std::string>> match_label_disjunction(
    const ExprPtr& e, std::string& var_name) {
  if (e->kind() == Expr::Kind::Binary && e->bin_op() == BinOp::Or) {
    auto lhs = match_label_disjunction(e->lhs(), var_name);
    if (!lhs) return std::nullopt;
    auto rhs = match_label_disjunction(e->rhs(), var_name);
    if (!rhs) return std::nullopt;
    lhs->insert(lhs->end(), rhs->begin(), rhs->end());
    return lhs;
  }
  if (e->kind() == Expr::Kind::Binary && e->bin_op() == BinOp::Eq &&
      e->lhs()->kind() == Expr::Kind::Var &&
      e->rhs()->kind() == Expr::Kind::Literal &&
      e->rhs()->literal().is_str()) {
    if (var_name.empty()) var_name = e->lhs()->var();
    if (e->lhs()->var() != var_name) return std::nullopt;
    return std::vector<std::string>{e->rhs()->literal().as_str()};
  }
  return std::nullopt;
}

/// Splits a condition into top-level conjuncts.
void flatten_and(const ExprPtr& e, std::vector<ExprPtr>& out) {
  if (e->kind() == Expr::Kind::Binary && e->bin_op() == BinOp::And) {
    flatten_and(e->lhs(), out);
    flatten_and(e->rhs(), out);
    return;
  }
  out.push_back(e);
}

struct StrippedCondition {
  /// label var -> admissible labels (from disjunction conjuncts)
  std::map<std::string, std::vector<std::string>> label_sets;
  /// behavioral remainder (null when none)
  ExprPtr residual;
};

StrippedCondition strip_labels(const ExprPtr& cond) {
  StrippedCondition out;
  if (!cond) return out;
  std::vector<ExprPtr> conjuncts;
  flatten_and(cond, conjuncts);
  for (const ExprPtr& c : conjuncts) {
    std::string var;
    if (auto labels = match_label_disjunction(c, var)) {
      auto& set = out.label_sets[var];
      set.insert(set.end(), labels->begin(), labels->end());
      continue;
    }
    if (c->kind() == Expr::Kind::Literal && c->literal().is_bool() &&
        c->literal().as_bool()) {
      continue;  // trivially-true placeholder from guard rewriting
    }
    out.residual = out.residual
                       ? Expr::binary(BinOp::And, out.residual, c)
                       : c;
  }
  return out;
}

// ---------- per-reaction shape analysis ----------

struct PatternInfo {
  std::string value_var;
  std::vector<std::string> labels;  // one literal, or the disjunction set
  std::string label_var;            // set when field 1 was a binder
};

struct OutputInfo {
  ExprPtr value;
  std::string label;
  int tag_delta = 0;  // 0: same tag 'v'; +1/-1: inc/dec
  bool value_is_var = false;
  std::string value_var;
};

enum class RxKind { IncTag, DecTag, Steer, Cmp, Expression };

struct RxInfo {
  const Reaction* reaction = nullptr;
  RxKind kind = RxKind::Expression;
  std::vector<PatternInfo> patterns;
  bool tagged = false;
  // Branch outputs after analysis: [0]=if/unconditional, [1]=else.
  std::vector<std::vector<OutputInfo>> branch_outputs;
  ExprPtr residual;          // behavioral condition of branch 0
  std::size_t control = 0;   // Steer: pattern index of the boolean operand
  std::size_t data = 0;      // Steer: pattern index of the routed value
  BinOp cmp_op = BinOp::Lt;  // Cmp
  std::size_t cmp_lhs = 0, cmp_rhs = 1;
  bool cmp_has_imm = false;  // Cmp against a literal (Fig. 2's R14)
  Value cmp_imm;
};

int tag_delta_of(const ExprPtr& e, const std::string& tag_var,
                 const Reaction& r) {
  if (e->kind() == Expr::Kind::Var && e->var() == tag_var) return 0;
  if (e->kind() == Expr::Kind::Binary &&
      (e->bin_op() == BinOp::Add || e->bin_op() == BinOp::Sub) &&
      e->lhs()->kind() == Expr::Kind::Var && e->lhs()->var() == tag_var &&
      e->rhs()->kind() == Expr::Kind::Literal &&
      e->rhs()->literal().is_int() && e->rhs()->literal().as_int() == 1) {
    return e->bin_op() == BinOp::Add ? 1 : -1;
  }
  fail(r, "unsupported tag expression '" + e->to_string() + "'");
}

RxInfo analyze(const Reaction& r) {
  RxInfo info;
  info.reaction = &r;

  // Patterns: [valueVar, labelLit|labelVar (, tagVar)].
  const std::size_t nfields = r.patterns().front().fields().size();
  if (nfields < 1 || nfields > 3) fail(r, "unsupported element arity");
  info.tagged = nfields == 3;
  std::string tag_var;
  for (const Pattern& p : r.patterns()) {
    if (p.fields().size() != nfields) fail(r, "mixed element arities");
    PatternInfo pi;
    if (!p.fields()[0].is_binder()) fail(r, "literal value field");
    pi.value_var = p.fields()[0].name();
    if (nfields >= 2) {
      if (p.fields()[1].is_binder()) {
        pi.label_var = p.fields()[1].name();
      } else if (p.fields()[1].value().is_str()) {
        pi.labels.push_back(p.fields()[1].value().as_str());
      } else {
        fail(r, "non-string label field");
      }
    } else {
      fail(r, "untagged 1-field elements carry no label to reconstruct edges");
    }
    if (nfields == 3) {
      if (!p.fields()[2].is_binder()) fail(r, "literal tag field");
      if (tag_var.empty()) tag_var = p.fields()[2].name();
      if (p.fields()[2].name() != tag_var) fail(r, "inconsistent tag variables");
    }
    info.patterns.push_back(std::move(pi));
  }

  // Branches: strip label disjunctions; resolve per-pattern label sets.
  std::vector<ExprPtr> residuals;
  for (const Branch& br : r.branches()) {
    StrippedCondition sc = strip_labels(br.condition);
    for (auto& [var, labels] : sc.label_sets) {
      bool found = false;
      for (PatternInfo& pi : info.patterns) {
        if (pi.label_var == var) {
          if (pi.labels.empty()) pi.labels = labels;
          found = true;
        }
      }
      if (!found) fail(r, "label condition on unknown variable '" + var + "'");
    }
    residuals.push_back(sc.residual);

    auto& outs = info.branch_outputs.emplace_back();
    for (const auto& tuple : br.outputs) {
      if (tuple.size() != nfields) fail(r, "output arity differs from input");
      OutputInfo oi;
      oi.value = tuple[0];
      oi.value_is_var = tuple[0]->kind() == Expr::Kind::Var;
      if (oi.value_is_var) oi.value_var = tuple[0]->var();
      if (tuple[1]->kind() != Expr::Kind::Literal ||
          !tuple[1]->literal().is_str()) {
        fail(r, "output label must be a string literal");
      }
      oi.label = tuple[1]->literal().as_str();
      if (nfields == 3) oi.tag_delta = tag_delta_of(tuple[2], tag_var, r);
      outs.push_back(std::move(oi));
    }
  }
  for (const PatternInfo& pi : info.patterns) {
    if (pi.labels.empty()) {
      fail(r, "pattern label variable '" + pi.label_var +
                  "' has no label disjunction in any condition");
    }
  }
  info.residual = residuals[0];

  // Else detection: a second branch whose residual is `not <first>` (the
  // guard rewrite) or that was a literal else.
  const std::size_t nbranches = r.branches().size();
  if (nbranches > 2) fail(r, "more than two branches");
  bool has_else = false;
  if (nbranches == 2) {
    const Branch& b1 = r.branches()[1];
    if (b1.is_else) {
      has_else = true;
    } else if (residuals[1] && residuals[1]->kind() == Expr::Kind::Unary &&
               residuals[1]->un_op() == expr::UnOp::Not && info.residual &&
               expr::equal(residuals[1]->operand(), info.residual)) {
      has_else = true;
    } else {
      fail(r, "second branch is neither else nor the first's complement");
    }
  }

  // --- classify ---
  const auto all_tag_delta = [&](const std::vector<OutputInfo>& outs, int d) {
    for (const OutputInfo& o : outs) {
      if (o.tag_delta != d) return false;
    }
    return true;
  };

  if (r.arity() == 1 && nbranches == 1 && !info.residual &&
      !info.branch_outputs[0].empty() &&
      (all_tag_delta(info.branch_outputs[0], 1) ||
       all_tag_delta(info.branch_outputs[0], -1))) {
    // IncTag/DecTag: identity value, tag +/- 1.
    for (const OutputInfo& o : info.branch_outputs[0]) {
      if (!o.value_is_var || o.value_var != info.patterns[0].value_var) {
        fail(r, "tag-changing reaction must forward its value unchanged");
      }
    }
    info.kind = info.branch_outputs[0][0].tag_delta == 1 ? RxKind::IncTag
                                                         : RxKind::DecTag;
    return info;
  }

  // From here on, tags must be preserved.
  for (const auto& outs : info.branch_outputs) {
    if (!all_tag_delta(outs, 0)) {
      fail(r, "tag arithmetic outside inctag/dectag shape");
    }
  }

  if ((r.arity() == 1 || r.arity() == 2) && nbranches == 2 && has_else &&
      info.residual) {
    const ExprPtr& c = info.residual;
    // Steer: ctrl == 1, outputs forward the data variable.
    if (r.arity() == 2 && c->kind() == Expr::Kind::Binary &&
        c->bin_op() == BinOp::Eq && c->lhs()->kind() == Expr::Kind::Var &&
        c->rhs()->kind() == Expr::Kind::Literal &&
        c->rhs()->literal() == Value(std::int64_t{1})) {
      const std::string& ctrl_var = c->lhs()->var();
      std::optional<std::size_t> ctrl_idx;
      for (std::size_t i = 0; i < info.patterns.size(); ++i) {
        if (info.patterns[i].value_var == ctrl_var) ctrl_idx = i;
      }
      if (ctrl_idx) {
        const std::size_t data_idx = 1 - *ctrl_idx;
        const std::string& data_var = info.patterns[data_idx].value_var;
        bool forwards = true;
        for (const auto& outs : info.branch_outputs) {
          for (const OutputInfo& o : outs) {
            if (!o.value_is_var || o.value_var != data_var) forwards = false;
          }
        }
        if (forwards) {
          info.kind = RxKind::Steer;
          info.control = *ctrl_idx;
          info.data = data_idx;
          return info;
        }
      }
    }
    // Cmp: (a op b) or (a op literal) with 1/0 outputs mirrored across
    // branches (the immediate form is Fig. 2's R14, "if id1 > 0").
    if (c->kind() == Expr::Kind::Binary && expr::is_comparison(c->bin_op()) &&
        c->lhs()->kind() == Expr::Kind::Var &&
        (c->rhs()->kind() == Expr::Kind::Var ||
         c->rhs()->kind() == Expr::Kind::Literal)) {
      auto idx_of = [&](const std::string& v) -> std::optional<std::size_t> {
        for (std::size_t i = 0; i < info.patterns.size(); ++i) {
          if (info.patterns[i].value_var == v) return i;
        }
        return std::nullopt;
      };
      const bool imm = c->rhs()->kind() == Expr::Kind::Literal;
      const auto li = idx_of(c->lhs()->var());
      const auto ri =
          imm ? std::optional<std::size_t>{0} : idx_of(c->rhs()->var());
      // Immediate comparisons have arity 1 (only the compared element).
      if (imm && r.arity() != 1) {
        fail(r, "immediate comparison must consume exactly one element");
      }
      auto all_const = [](const std::vector<OutputInfo>& outs, std::int64_t k) {
        for (const OutputInfo& o : outs) {
          if (o.value->kind() != Expr::Kind::Literal ||
              o.value->literal() != Value(k)) {
            return false;
          }
        }
        return !outs.empty();
      };
      auto labels_of = [](const std::vector<OutputInfo>& outs) {
        std::set<std::string> s;
        for (const OutputInfo& o : outs) s.insert(o.label);
        return s;
      };
      if (li && ri && all_const(info.branch_outputs[0], 1) &&
          all_const(info.branch_outputs[1], 0) &&
          labels_of(info.branch_outputs[0]) ==
              labels_of(info.branch_outputs[1])) {
        info.kind = RxKind::Cmp;
        info.cmp_op = c->bin_op();
        info.cmp_lhs = *li;
        info.cmp_rhs = *ri;
        if (imm) {
          info.cmp_has_imm = true;
          info.cmp_imm = c->rhs()->literal();
        }
        return info;
      }
    }
    fail(r, "two-branch reaction matches neither steer nor comparison shape");
  }

  if (nbranches == 1 && !info.residual) {
    info.kind = RxKind::Expression;  // k-ary arithmetic (incl. reduced Rd1)
    return info;
  }
  fail(r, "conditional reaction of unrecognized shape");
}

// ---------- graph assembly ----------

struct ProducerPort {
  NodeId node;
  PortId port;
};

struct ConsumerSlot {
  NodeId node;
  PortId port;
};

}  // namespace

dataflow::Graph reconstruct_graph(const gamma::Program& program,
                                  const gamma::Multiset& initial) {
  if (program.stage_count() > 1) {
    throw TranslateError(
        "sequential (';') programs have no single-graph equivalent");
  }

  std::vector<RxInfo> infos;
  for (const Reaction* r : program.all_reactions()) {
    infos.push_back(analyze(*r));
  }

  GraphBuilder b;
  std::map<std::string, std::vector<ProducerPort>> producers;
  std::map<std::string, std::vector<ConsumerSlot>> consumers;
  std::set<std::string> all_labels;

  // Const roots from the initial multiset.
  for (const Element& e : initial) {
    if (e.arity() < 2 || !e.field(1).is_str()) {
      throw TranslateError("initial element " + e.to_string() +
                           " has no label field");
    }
    if (e.arity() == 3 && e.field(2) != Value(std::int64_t{0})) {
      throw TranslateError("initial element " + e.to_string() +
                           " must carry tag 0");
    }
    const std::string label = e.field(1).as_str();
    const NodeId n = b.constant(e.field(0), label + "_src").node;
    producers[label].push_back(ProducerPort{n, 0});
    all_labels.insert(label);
  }

  // Reaction nodes; collect producer ports and consumer slots per label.
  for (RxInfo& info : infos) {
    const Reaction& r = *info.reaction;
    auto consume = [&](std::size_t pattern_idx, NodeId node, PortId port) {
      for (const std::string& label : info.patterns[pattern_idx].labels) {
        consumers[label].push_back(ConsumerSlot{node, port});
        all_labels.insert(label);
      }
    };
    auto produce = [&](const OutputInfo& o, NodeId node, PortId port) {
      producers[o.label].push_back(ProducerPort{node, port});
      all_labels.insert(o.label);
    };

    switch (info.kind) {
      case RxKind::IncTag:
      case RxKind::DecTag: {
        const NodeId n = info.kind == RxKind::IncTag ? b.inctag(r.name())
                                                     : b.dectag(r.name());
        consume(0, n, 0);
        for (const OutputInfo& o : info.branch_outputs[0]) produce(o, n, 0);
        break;
      }
      case RxKind::Steer: {
        const NodeId n = b.steer(r.name());
        consume(info.data, n, dataflow::kSteerData);
        consume(info.control, n, dataflow::kSteerControl);
        for (const OutputInfo& o : info.branch_outputs[0]) {
          produce(o, n, dataflow::kSteerTrue);
        }
        for (const OutputInfo& o : info.branch_outputs[1]) {
          produce(o, n, dataflow::kSteerFalse);
        }
        break;
      }
      case RxKind::Cmp: {
        const NodeId n = info.cmp_has_imm
                             ? b.cmp_imm(info.cmp_op, info.cmp_imm, r.name())
                             : b.cmp(info.cmp_op, r.name());
        consume(info.cmp_lhs, n, 0);
        if (!info.cmp_has_imm) consume(info.cmp_rhs, n, 1);
        // Both branches emit on the same port (1 on true, 0 on false);
        // labels are mirrored, so registering branch 0 covers them.
        for (const OutputInfo& o : info.branch_outputs[0]) produce(o, n, 0);
        break;
      }
      case RxKind::Expression: {
        // One arithmetic tree per output tuple; every leaf variable becomes
        // a consumer slot of its pattern.
        std::map<std::string, std::size_t> var_to_pattern;
        for (std::size_t i = 0; i < info.patterns.size(); ++i) {
          var_to_pattern[info.patterns[i].value_var] = i;
        }
        std::set<std::size_t> used;
        std::function<GraphBuilder::Port(const ExprPtr&)> tree =
            [&](const ExprPtr& e) -> GraphBuilder::Port {
          switch (e->kind()) {
            case Expr::Kind::Literal:
              return b.constant(e->literal());
            case Expr::Kind::Var: {
              // A fresh relay point for the operand: materialized as an
              // identity via arith(+0)? No — leaves connect directly: the
              // slot is the consuming operator port, handled by the caller.
              fail(r, "internal: bare-variable leaf outside binary context");
            }
            case Expr::Kind::Unary:
              if (e->un_op() == expr::UnOp::Neg) {
                return tree(Expr::binary(BinOp::Sub,
                                         Expr::lit(Value(std::int64_t{0})),
                                         e->operand()));
              }
              fail(r, "'not' in arithmetic output");
            case Expr::Kind::Binary: {
              if (!expr::is_arithmetic(e->bin_op()) &&
                  !expr::is_comparison(e->bin_op())) {
                fail(r, "logical operator in arithmetic output");
              }
              // A literal right operand becomes an immediate node so the
              // expression stays usable inside loops (R18's id1 - 1; a
              // Const node would only fire at tag 0).
              const bool imm = e->rhs()->kind() == Expr::Kind::Literal;
              const NodeId n =
                  expr::is_arithmetic(e->bin_op())
                      ? (imm ? b.arith_imm(e->bin_op(), e->rhs()->literal())
                             : b.arith(e->bin_op()))
                      : (imm ? b.cmp_imm(e->bin_op(), e->rhs()->literal())
                             : b.cmp(e->bin_op()));
              auto wire = [&](const ExprPtr& child, PortId port) {
                if (child->kind() == Expr::Kind::Var) {
                  auto it = var_to_pattern.find(child->var());
                  if (it == var_to_pattern.end()) {
                    fail(r, "unknown variable '" + child->var() + "'");
                  }
                  used.insert(it->second);
                  consume(it->second, n, port);
                } else {
                  b.connect(tree(child), n, port);
                }
              };
              wire(e->lhs(), 0);
              if (!imm) wire(e->rhs(), 1);
              return GraphBuilder::out(n);
            }
          }
          fail(r, "unreachable");
        };
        std::size_t tree_index = 0;
        for (const OutputInfo& o : info.branch_outputs[0]) {
          if (o.value->kind() == Expr::Kind::Var) {
            fail(r, "copy reactions have no dataflow node equivalent");
          }
          const NodeId root = tree(o.value).node;
          // Carry the reaction name on the tree root (suffixing extra trees)
          // so round-tripped graphs keep their vertex names.
          b.set_name(root, tree_index == 0
                               ? r.name()
                               : r.name() + "#" + std::to_string(tree_index));
          ++tree_index;
          produce(o, root, 0);
        }
        if (used.size() != info.patterns.size()) {
          fail(r, "some consumed elements are unused by the outputs");
        }
        break;
      }
    }
  }

  // Wire label edges; unconsumed labels become Output sinks.
  for (const std::string& label : all_labels) {
    const auto prod_it = producers.find(label);
    if (prod_it == producers.end()) {
      throw TranslateError("label '" + label +
                           "' is consumed but never produced");
    }
    auto cons_it = consumers.find(label);
    std::vector<ConsumerSlot> slots;
    if (cons_it == consumers.end()) {
      // Result label (the paper's 'm'): attach an Output sink.
      const NodeId out = b.output(label);
      slots.push_back(ConsumerSlot{out, 0});
    } else {
      slots = cons_it->second;
    }
    std::size_t serial = 0;
    for (const ProducerPort& p : prod_it->second) {
      for (const ConsumerSlot& c : slots) {
        std::string edge_label = label;
        if (serial > 0) edge_label.append("#").append(std::to_string(serial));
        ++serial;
        b.connect(GraphBuilder::Port{p.node, p.port}, c.node, c.port,
                  edge_label);
      }
    }
  }

  return std::move(b).build();
}

}  // namespace gammaflow::translate
