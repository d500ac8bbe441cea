#include "gammaflow/translate/reduce.hpp"

#include <map>
#include <optional>

#include "gammaflow/common/error.hpp"
#include "gammaflow/expr/simplify.hpp"

namespace gammaflow::translate {

using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using gamma::Branch;
using gamma::Pattern;
using gamma::PatternField;
using gamma::Reaction;

namespace {

struct Expander {
  const Reaction& original;
  std::function<std::string(std::size_t)> fresh;
  std::vector<Reaction> result;
  std::size_t next_label = 0;
  std::size_t next_rx = 0;
  std::string tag_var;
  std::size_t element_arity = 2;

  /// A value available as a multiset element under `label`.
  struct Operand {
    std::string label;
  };

  /// Emits one binary reaction consuming `a` (and `b` when binary) and
  /// producing `out_label`; `body` is the output value over id1/id2.
  void emit(const std::optional<Operand>& a, const std::optional<Operand>& b,
            const ExprPtr& body, const std::string& out_label) {
    std::vector<Pattern> patterns;
    auto add_pattern = [&](const Operand& op, const std::string& var) {
      std::vector<PatternField> fields;
      fields.push_back(PatternField::bind(var));
      fields.push_back(PatternField::literal(Value(op.label)));
      if (element_arity == 3) fields.push_back(PatternField::bind(tag_var));
      patterns.push_back(Pattern(std::move(fields)));
    };
    if (a) add_pattern(*a, "id1");
    if (b) add_pattern(*b, "id2");

    std::vector<ExprPtr> tuple;
    tuple.push_back(body);
    tuple.push_back(Expr::lit(Value(out_label)));
    if (element_arity == 3) tuple.push_back(Expr::var(tag_var));

    const std::string name = out_label == final_label()
                                 ? original.name()
                                 : original.name() + "_e" + std::to_string(++next_rx);
    std::vector<std::vector<ExprPtr>> outputs;
    outputs.push_back(std::move(tuple));
    std::vector<Branch> branches;
    branches.push_back(Branch::unconditional(std::move(outputs)));
    result.emplace_back(name, std::move(patterns), std::move(branches));
  }

  [[nodiscard]] std::string final_label() const { return final_label_; }
  std::string final_label_;

  std::string make_label() {
    const std::size_t k = next_label++;
    return fresh ? fresh(k) : original.name() + "_t" + std::to_string(k);
  }

  /// Lowers `e`; returns either an Operand (element carrying the value) or
  /// an inline literal expression.
  struct Lowered {
    std::optional<Operand> operand;
    ExprPtr literal;  // set iff operand is empty
  };

  Lowered lower(const ExprPtr& e,
                const std::map<std::string, std::string>& var_labels,
                const std::string& target_label) {
    switch (e->kind()) {
      case Expr::Kind::Literal:
        return Lowered{std::nullopt, e};
      case Expr::Kind::Var: {
        auto it = var_labels.find(e->var());
        if (it == var_labels.end()) {
          throw TranslateError("expand: variable '" + e->var() +
                               "' is not a pattern value binder");
        }
        return Lowered{Operand{it->second}, nullptr};
      }
      case Expr::Kind::Unary: {
        if (e->un_op() != expr::UnOp::Neg) {
          throw TranslateError("expand: cannot split 'not'");
        }
        return lower(Expr::binary(BinOp::Sub, Expr::lit(Value(std::int64_t{0})),
                                  e->operand()),
                     var_labels, target_label);
      }
      case Expr::Kind::Binary: {
        const Lowered lhs = lower(e->lhs(), var_labels, make_label());
        const Lowered rhs = lower(e->rhs(), var_labels, make_label());
        if (!lhs.operand && !rhs.operand) {
          return Lowered{std::nullopt,
                         expr::simplify(Expr::binary(e->bin_op(), lhs.literal,
                                                     rhs.literal))};
        }
        ExprPtr left_body =
            lhs.operand ? Expr::var("id1") : lhs.literal;
        ExprPtr right_body =
            rhs.operand ? Expr::var(lhs.operand ? "id2" : "id1") : rhs.literal;
        emit(lhs.operand, rhs.operand,
             Expr::binary(e->bin_op(), left_body, right_body), target_label);
        return Lowered{Operand{target_label}, nullptr};
      }
    }
    throw TranslateError("expand: unreachable expression kind");
  }
};

}  // namespace

std::vector<Reaction> expand_reaction(
    const Reaction& reaction,
    const std::function<std::string(std::size_t)>& fresh,
    std::string* skip_reason) {
  const auto skip = [&](const std::string& why) -> std::vector<Reaction> {
    if (skip_reason != nullptr) *skip_reason = why;
    return {reaction};
  };
  if (skip_reason != nullptr) skip_reason->clear();

  if (reaction.branches().size() != 1 || reaction.branches()[0].condition ||
      reaction.branches()[0].outputs.size() != 1) {
    return skip(
        "not a single-unconditional-output expression reaction (conditions "
        "and multi-output branches cannot be split)");
  }
  const auto& tuple = reaction.branches()[0].outputs[0];
  const std::size_t nfields = reaction.patterns().front().fields().size();
  if (nfields < 2) {
    return skip("elements are unlabeled; intermediates cannot be routed");
  }
  if (tuple.size() != nfields || tuple[1]->kind() != Expr::Kind::Literal ||
      !tuple[1]->literal().is_str()) {
    return skip("output label is not a string literal of the input arity");
  }
  if (tuple[0]->kind() != Expr::Kind::Binary) {
    return skip("output value has no binary operator to split on");
  }

  // A single-operator body is already in expanded form; keep the reaction
  // verbatim (including its variable names).
  {
    std::function<std::size_t(const Expr&)> ops = [&](const Expr& e) -> std::size_t {
      switch (e.kind()) {
        case Expr::Kind::Binary: return 1 + ops(*e.lhs()) + ops(*e.rhs());
        case Expr::Kind::Unary: return 1 + ops(*e.operand());
        default: return 0;
      }
    };
    if (ops(*tuple[0]) <= 1) {
      return skip("already in expanded form (single-operator body)");
    }
  }

  // Every value binder must occur exactly once in the body: splitting a
  // shared subexpression would make two reactions race for one element.
  {
    std::function<void(const ExprPtr&, std::map<std::string, int>&)> count =
        [&](const ExprPtr& e, std::map<std::string, int>& uses) {
          switch (e->kind()) {
            case Expr::Kind::Var: ++uses[e->var()]; break;
            case Expr::Kind::Unary: count(e->operand(), uses); break;
            case Expr::Kind::Binary:
              count(e->lhs(), uses);
              count(e->rhs(), uses);
              break;
            case Expr::Kind::Literal: break;
          }
        };
    std::map<std::string, int> uses;
    count(tuple[0], uses);
    for (const auto& [var, n] : uses) {
      if (n > 1) {
        return skip("binder '" + var +
                    "' occurs " + std::to_string(n) +
                    " times in the body; split reactions would race for one "
                    "element");
      }
    }
  }

  // Map value binders to their element labels; each must be used once.
  std::map<std::string, std::string> var_labels;
  std::string tag_var;
  for (const Pattern& p : reaction.patterns()) {
    if (p.fields().size() != nfields || !p.fields()[0].is_binder() ||
        p.fields()[1].is_binder()) {
      return skip(
          "patterns are not uniform [binder, literal-label, ...] shapes");
    }
    var_labels[p.fields()[0].name()] = p.fields()[1].value().as_str();
    if (nfields == 3) {
      if (!p.fields()[2].is_binder()) {
        return skip("tag field is not a binder");
      }
      tag_var = p.fields()[2].name();
    }
  }

  Expander ex{reaction, fresh, {}, 0, 0, tag_var, nfields, {}};
  ex.final_label_ = tuple[1]->literal().as_str();
  const Expander::Lowered top =
      ex.lower(tuple[0], var_labels, ex.final_label_);
  if (!top.operand) {
    return skip("body folded to a literal; nothing to split");
  }
  return std::move(ex.result);
}

gamma::Program expand_program(const gamma::Program& program,
                              std::vector<ExpandSkip>* skips) {
  std::vector<std::vector<Reaction>> stages;
  stages.reserve(program.stage_count());
  for (const auto& stage : program.stages()) {
    std::vector<Reaction> expanded;
    for (const Reaction& r : stage) {
      std::string reason;
      std::vector<Reaction> es = expand_reaction(r, nullptr, &reason);
      if (skips != nullptr && !reason.empty()) {
        skips->push_back({r.name(), reason});
      }
      for (Reaction& e : es) expanded.push_back(std::move(e));
    }
    stages.push_back(std::move(expanded));
  }
  return gamma::Program::from_stages(std::move(stages));
}

}  // namespace gammaflow::translate
