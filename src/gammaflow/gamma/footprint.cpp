#include "gammaflow/gamma/footprint.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

namespace gammaflow::gamma {

using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;

namespace {

/// Sound upper bound on the string labels `var` may hold for `cond` to be
/// true: nullopt when no bound can be proven (the condition may admit any
/// label). Only pure positive structure is trusted — Or unions, And
/// intersects (one bounded side suffices), var == 'lit' is a singleton;
/// anything else (negation, inequality, arithmetic over var) gives up.
std::optional<std::set<std::string>> bound_labels(const ExprPtr& cond,
                                                  const std::string& var) {
  if (!cond || cond->kind() != Expr::Kind::Binary) return std::nullopt;
  const BinOp op = cond->bin_op();
  if (op == BinOp::Eq) {
    const ExprPtr& l = cond->lhs();
    const ExprPtr& r = cond->rhs();
    for (const auto& [v, lit] : {std::pair{l, r}, std::pair{r, l}}) {
      if (v->kind() == Expr::Kind::Var && v->var() == var &&
          lit->kind() == Expr::Kind::Literal && lit->literal().is_str()) {
        return std::set<std::string>{lit->literal().as_str()};
      }
    }
    return std::nullopt;
  }
  if (op == BinOp::Or) {
    auto a = bound_labels(cond->lhs(), var);
    auto b = bound_labels(cond->rhs(), var);
    if (!a || !b) return std::nullopt;
    a->insert(b->begin(), b->end());
    return a;
  }
  if (op == BinOp::And) {
    auto a = bound_labels(cond->lhs(), var);
    auto b = bound_labels(cond->rhs(), var);
    if (a && b) {
      std::set<std::string> both;
      std::set_intersection(a->begin(), a->end(), b->begin(), b->end(),
                            std::inserter(both, both.begin()));
      return both;
    }
    return a ? a : b;
  }
  return std::nullopt;
}

void join(std::ostream& os, const std::set<std::string>& labels,
          const std::set<std::size_t>& arities, bool any) {
  if (any) {
    os << '*';
    return;
  }
  bool first = true;
  for (const std::string& l : labels) {
    os << (first ? "" : ",") << '\'' << l << '\'';
    first = false;
  }
  for (const std::size_t a : arities) {
    os << (first ? "" : ",") << "arity:" << a;
    first = false;
  }
  if (first) os << "-";
}

}  // namespace

/// Reaction-level bound for a label binder: the union of per-branch bounds.
/// An unconditional or else branch fires regardless of the label, so the
/// binder admits anything.
std::optional<std::set<std::string>> admitted_labels(const Reaction& r,
                                                     const std::string& var) {
  std::set<std::string> all;
  for (const Branch& br : r.branches()) {
    if (!br.condition || br.is_else) return std::nullopt;
    auto sub = bound_labels(br.condition, var);
    if (!sub) return std::nullopt;
    all.insert(sub->begin(), sub->end());
  }
  return all;
}

std::string Footprint::to_string() const {
  std::ostringstream os;
  os << "consumes ";
  join(os, consume_labels, consume_arities, consume_any);
  os << " produces ";
  join(os, produce_labels, produce_arities, produce_any);
  return os.str();
}

Footprint reaction_footprint(const Reaction& reaction) {
  Footprint f;
  for (const Pattern& p : reaction.patterns()) {
    const auto& fields = p.fields();
    if (fields.size() < 2) {
      f.consume_arities.insert(p.arity());
      continue;
    }
    if (!fields[1].is_binder()) {
      if (fields[1].value().is_str()) {
        f.consume_labels.insert(fields[1].value().as_str());
      } else {
        f.consume_arities.insert(p.arity());
      }
      continue;
    }
    if (auto bounds = admitted_labels(reaction, fields[1].name())) {
      f.consume_labels.insert(bounds->begin(), bounds->end());
    } else {
      f.consume_any = true;
    }
  }
  for (const Branch& br : reaction.branches()) {
    for (const auto& tuple : br.outputs) {
      if (tuple.size() < 2) {
        f.produce_arities.insert(tuple.size());
        continue;
      }
      const ExprPtr& label = tuple[1];
      if (label->kind() == Expr::Kind::Literal) {
        if (label->literal().is_str()) {
          f.produce_labels.insert(label->literal().as_str());
        } else {
          f.produce_arities.insert(tuple.size());
        }
        continue;
      }
      // A label binder passed through keeps its consume-side bound.
      if (label->kind() == Expr::Kind::Var) {
        if (auto bounds = admitted_labels(reaction, label->var())) {
          f.produce_labels.insert(bounds->begin(), bounds->end());
          continue;
        }
      }
      f.produce_any = true;
    }
  }
  return f;
}

std::vector<Footprint> program_footprints(const Program& program) {
  std::vector<Footprint> out;
  for (const Reaction* r : program.all_reactions()) {
    out.push_back(reaction_footprint(*r));
  }
  return out;
}

}  // namespace gammaflow::gamma
