#include "gammaflow/analysis/lint.hpp"

#include <algorithm>
#include <ostream>
#include <set>

#include "gammaflow/analysis/interference.hpp"
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

  // Program-wide label flow, read off one footprint per reaction. A
  // computed output label may be any label, so it makes every label
  // available; a label binder the footprint cannot bound may consume any
  // label, so no label leaks.
  const std::vector<const Reaction*> reactions = program.all_reactions();
  const std::vector<gamma::Footprint> footprints =
      gamma::program_footprints(program);
  std::set<std::string> available;  // initial + any produced label
  std::set<std::string> consumed;
  bool any_produce_any = false;
  bool any_consume_any = false;
  for (const auto& e : initial) {
    if (e.arity() >= 2 && e.field(1).is_str()) {
      available.insert(e.field(1).as_str());
    }
  }
  for (const gamma::Footprint& fp : footprints) {
    available.insert(fp.produce_labels.begin(), fp.produce_labels.end());
    consumed.insert(fp.consume_labels.begin(), fp.consume_labels.end());
    any_produce_any |= fp.produce_any;
    any_consume_any |= fp.consume_any;
  }

  for (std::size_t ri = 0; ri < reactions.size(); ++ri) {
    const Reaction* r = reactions[ri];
    const gamma::Footprint& fp = footprints[ri];
    const std::string& name = r->name();

    // dead-reaction: every needed label must be obtainable.
    if (!any_produce_any && !fp.consume_any) {
      for (const std::string& l : fp.consume_labels) {
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
      // feeds() lets a computed output label (produce_any) feed every
      // consumer; this error claims the reaction MUST refill itself, so
      // only its exact product keys, or a label binder that takes back any
      // product, count.
      gamma::Footprint exact = fp;
      exact.produce_any = false;
      const bool self_feeding = fp.consume_any || feeds(exact, exact);
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
  if (!any_consume_any) {
    for (const std::string& l : available) {
      if (!consumed.contains(l)) {
        add(Severity::Info, "leaked-label", "",
            "label '" + l + "' is never consumed; its elements accumulate "
            "in the final multiset (program output?)");
      }
    }
  }

  return report;
}

}  // namespace gammaflow::analysis
