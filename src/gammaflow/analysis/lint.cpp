#include "gammaflow/analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "gammaflow/common/json.hpp"
#include "gammaflow/expr/simplify.hpp"

namespace gammaflow::analysis {

using expr::Expr;
using expr::ExprPtr;
using gamma::Branch;
using gamma::Pattern;
using gamma::Reaction;

const char* to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

namespace {

/// Literal label of a pattern's field 1, empty when absent/variable.
std::string pattern_label(const Pattern& p) {
  if (p.fields().size() >= 2 && !p.fields()[1].is_binder() &&
      p.fields()[1].value().is_str()) {
    return p.fields()[1].value().as_str();
  }
  return {};
}

/// Labels admitted by a label-variable pattern via a branch condition's
/// (x=='A') or (x=='B') disjunctions. Collects every string literal compared
/// against the variable (an over-approximation, fine for linting).
std::set<std::string> condition_labels(const ExprPtr& cond,
                                       const std::string& var) {
  std::set<std::string> out;
  if (!cond) return out;
  if (cond->kind() == Expr::Kind::Binary) {
    const auto op = cond->bin_op();
    if (op == expr::BinOp::Eq && cond->lhs()->kind() == Expr::Kind::Var &&
        cond->lhs()->var() == var &&
        cond->rhs()->kind() == Expr::Kind::Literal &&
        cond->rhs()->literal().is_str()) {
      out.insert(cond->rhs()->literal().as_str());
      return out;
    }
    for (const auto& side : {cond->lhs(), cond->rhs()}) {
      auto sub = condition_labels(side, var);
      out.insert(sub.begin(), sub.end());
    }
  } else if (cond->kind() == Expr::Kind::Unary) {
    return condition_labels(cond->operand(), var);
  }
  return out;
}

/// Labels a reaction can consume (per pattern: the literal, or the
/// condition-admitted set for a label variable; empty set = wildcard).
struct ConsumeInfo {
  std::set<std::string> labels;
  bool wildcard = false;  // label variable with no recognizable constraint
};

ConsumeInfo consumed_labels(const Reaction& r) {
  ConsumeInfo info;
  for (const Pattern& p : r.patterns()) {
    const std::string lit = pattern_label(p);
    if (!lit.empty()) {
      info.labels.insert(lit);
      continue;
    }
    if (p.fields().size() >= 2 && p.fields()[1].is_binder()) {
      std::set<std::string> admitted;
      for (const Branch& br : r.branches()) {
        auto sub = condition_labels(br.condition, p.fields()[1].name());
        admitted.insert(sub.begin(), sub.end());
      }
      if (admitted.empty()) {
        info.wildcard = true;
      } else {
        info.labels.insert(admitted.begin(), admitted.end());
      }
    } else if (p.fields().size() < 2) {
      info.wildcard = true;  // unlabeled elements: matches anything of arity
    }
  }
  return info;
}

/// Labels a reaction can produce (literal field-1s of output tuples).
std::set<std::string> produced_labels(const Reaction& r) {
  std::set<std::string> out;
  for (const Branch& br : r.branches()) {
    for (const auto& tuple : br.outputs) {
      if (tuple.size() >= 2 && tuple[1]->kind() == Expr::Kind::Literal &&
          tuple[1]->literal().is_str()) {
        out.insert(tuple[1]->literal().as_str());
      }
    }
  }
  return out;
}

}  // namespace

std::size_t LintReport::errors() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::Error;
      }));
}

std::size_t LintReport::warnings() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::Warning;
      }));
}

std::vector<Finding> LintReport::of(const std::string& check) const {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.check == check) out.push_back(f);
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const LintReport& report) {
  for (const Finding& f : report.findings) {
    os << to_string(f.severity) << " [" << f.check << "]";
    if (!f.reaction.empty()) os << " " << f.reaction;
    os << ": " << f.message << '\n';
  }
  return os;
}

void write_json(std::ostream& os, const LintReport& report) {
  os << "{\"errors\":" << report.errors()
     << ",\"warnings\":" << report.warnings() << ",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i) os << ',';
    os << "{\"severity\":\"" << to_string(f.severity) << "\",\"check\":"
       << json_quote(f.check) << ",\"where\":" << json_quote(f.reaction)
       << ",\"message\":" << json_quote(f.message) << '}';
  }
  os << "]}";
}

LintReport lint_program(const gamma::Program& program,
                        const gamma::Multiset& initial) {
  LintReport report;
  auto add = [&](Severity s, std::string check, std::string reaction,
                 std::string message) {
    report.findings.push_back(
        Finding{s, std::move(check), std::move(reaction), std::move(message)});
  };

  // Program-wide label flow.
  std::set<std::string> available;  // initial + any produced label
  bool any_wildcard_consumer = false;
  for (const auto& e : initial) {
    if (e.arity() >= 2 && e.field(1).is_str()) {
      available.insert(e.field(1).as_str());
    }
  }
  std::map<std::string, std::set<std::string>> consumers;  // label -> reactions
  for (const Reaction* r : program.all_reactions()) {
    for (const std::string& l : produced_labels(*r)) available.insert(l);
  }
  for (const Reaction* r : program.all_reactions()) {
    const ConsumeInfo ci = consumed_labels(*r);
    any_wildcard_consumer |= ci.wildcard;
    for (const std::string& l : ci.labels) consumers[l].insert(r->name());
  }

  for (const Reaction* r : program.all_reactions()) {
    const std::string& name = r->name();
    const ConsumeInfo ci = consumed_labels(*r);

    // dead-reaction: every needed label must be obtainable.
    if (!ci.wildcard) {
      for (const std::string& l : ci.labels) {
        if (!available.contains(l)) {
          add(Severity::Error, "dead-reaction", name,
              "consumes label '" + l +
                  "' that is neither initial nor produced by any reaction");
        }
      }
    }

    // constant-condition.
    for (std::size_t bi = 0; bi < r->branches().size(); ++bi) {
      const Branch& br = r->branches()[bi];
      if (!br.condition) continue;
      const ExprPtr folded = expr::simplify(br.condition);
      if (folded->kind() == Expr::Kind::Literal && folded->literal().is_bool()) {
        add(Severity::Warning, "constant-condition", name,
            "branch " + std::to_string(bi + 1) + " condition '" +
                br.condition->to_string() + "' is always " +
                (folded->literal().as_bool() ? "true" : "false"));
      }
    }

    // guaranteed-divergence: fires whenever patterns match (unconditional or
    // else), never shrinks, and can refill its own inputs.
    const bool always_fires =
        std::any_of(r->branches().begin(), r->branches().end(),
                    [](const Branch& b) { return !b.condition; });
    if (always_fires && !r->is_shrinking()) {
      const auto produced = produced_labels(*r);
      const bool self_feeding =
          ci.wildcard ||
          std::any_of(produced.begin(), produced.end(),
                      [&](const std::string& l) { return ci.labels.contains(l); });
      bool grows = false;
      for (const Branch& b : r->branches()) {
        grows |= b.outputs.size() >= r->arity();
      }
      if (self_feeding && grows) {
        add(Severity::Error, "guaranteed-divergence", name,
            "unconditional, non-shrinking, and feeds its own inputs: the "
            "program cannot reach a fixed point");
      }
    }

    // unused-binder.
    std::set<std::string> used;
    for (const Branch& br : r->branches()) {
      if (br.condition) {
        auto fv = br.condition->free_vars();
        used.insert(fv.begin(), fv.end());
      }
      for (const auto& tuple : br.outputs) {
        for (const auto& field : tuple) {
          auto fv = field->free_vars();
          used.insert(fv.begin(), fv.end());
        }
      }
    }
    for (const Pattern& p : r->patterns()) {
      if (p.fields().empty() || !p.fields()[0].is_binder()) continue;
      const std::string& v = p.fields()[0].name();
      // Repeated binders are equality constraints: count as used.
      std::size_t binds = 0;
      for (const Pattern& q : r->patterns()) {
        for (const auto& f : q.fields()) {
          binds += f.is_binder() && f.name() == v;
        }
      }
      if (!used.contains(v) && binds == 1) {
        add(Severity::Info, "unused-binder", name,
            "value '" + v + "' is consumed but never read (pure "
            "synchronization element)");
      }
    }
  }

  // leaked-label: produced (or initial), consumed by nothing; results look
  // like this on purpose, hence Info.
  if (!any_wildcard_consumer) {
    for (const std::string& l : available) {
      if (!consumers.contains(l)) {
        add(Severity::Info, "leaked-label", "",
            "label '" + l + "' is never consumed; its elements accumulate "
            "in the final multiset (program output?)");
      }
    }
  }

  return report;
}

}  // namespace gammaflow::analysis
