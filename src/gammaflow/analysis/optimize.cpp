#include "gammaflow/analysis/optimize.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/json.hpp"
#include "gammaflow/expr/simplify.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"

namespace gammaflow::analysis {

using expr::BinOp;
using expr::Expr;
using expr::ExprPtr;
using expr::UnOp;
using gamma::Branch;
using gamma::Element;
using gamma::Multiset;
using gamma::Pattern;
using gamma::PatternField;
using gamma::Program;
using gamma::Reaction;

namespace {

// ---------------------------------------------------------------------------
// Producer shape (S2/S5): one branch, one tag-preserving output, literal
// pattern labels, and an optional guard condition carried into the fused
// consumer.
// ---------------------------------------------------------------------------

struct ProducerShape {
  std::string out_label;
  ExprPtr out_value;
  ExprPtr guard;        // null when unconditional
  std::string tag_var;  // empty when untagged
  std::size_t element_arity = 2;
};

std::optional<ProducerShape> producer_shape(const Reaction& r) {
  if (r.branches().size() != 1) return std::nullopt;
  const Branch& br = r.branches()[0];
  if (br.is_else || br.outputs.size() != 1) return std::nullopt;

  const std::size_t nfields = r.patterns().front().fields().size();
  if (nfields < 2) return std::nullopt;  // unlabeled elements can't be routed
  ProducerShape shape;
  shape.element_arity = nfields;
  shape.guard = br.condition;  // may be null
  for (const Pattern& p : r.patterns()) {
    if (p.fields().size() != nfields) return std::nullopt;
    if (!p.fields()[0].is_binder()) return std::nullopt;
    if (p.fields()[1].is_binder()) return std::nullopt;  // wildcard label
    if (nfields == 3) {
      if (!p.fields()[2].is_binder()) return std::nullopt;
      if (shape.tag_var.empty()) shape.tag_var = p.fields()[2].name();
      if (p.fields()[2].name() != shape.tag_var) return std::nullopt;
    }
  }
  const auto& tuple = br.outputs[0];
  if (tuple.size() != nfields) return std::nullopt;
  if (tuple[1]->kind() != Expr::Kind::Literal || !tuple[1]->literal().is_str()) {
    return std::nullopt;
  }
  if (nfields == 3) {
    if (tuple[2]->kind() != Expr::Kind::Var ||
        tuple[2]->var() != shape.tag_var) {
      return std::nullopt;  // tag must be preserved verbatim
    }
  }
  shape.out_label = tuple[1]->literal().as_str();
  shape.out_value = tuple[0];
  return shape;
}

std::set<std::string> binders_of(const Reaction& r) {
  std::set<std::string> out;
  for (const Pattern& p : r.patterns()) {
    for (const std::string& b : p.binders()) out.insert(b);
  }
  return out;
}

ExprPtr rename_vars(const ExprPtr& e,
                    const std::map<std::string, std::string>& renames) {
  std::vector<std::pair<std::string, ExprPtr>> subst;
  subst.reserve(renames.size());
  for (const auto& [from, to] : renames) {
    subst.emplace_back(from, Expr::var(to));
  }
  return expr::substitute(e, subst);
}

Pattern rename_pattern(const Pattern& p,
                       const std::map<std::string, std::string>& renames) {
  std::vector<PatternField> fields;
  for (const PatternField& f : p.fields()) {
    if (f.is_binder()) {
      auto it = renames.find(f.name());
      fields.push_back(
          PatternField::bind(it == renames.end() ? f.name() : it->second));
    } else {
      fields.push_back(f);
    }
  }
  return Pattern(std::move(fields));
}

/// Fuses producer `prod` into consumer `cons` at pattern `pattern_idx`:
/// the producer's patterns replace the consumed one (binders renamed apart,
/// the tag variable mapped onto the consumer's) and its output value is
/// substituted for the consumed value binder. A guarded producer
/// additionally conjoins the (renamed) guard into every consumer branch —
/// else branches become explicit `guard and not (earlier conditions)`
/// guards so "no branch fires" is exactly "the producer would not have
/// fired".
Reaction fuse_pair(const Reaction& cons, std::size_t pattern_idx,
                   const Reaction& prod, const ProducerShape& shape) {
  std::set<std::string> taken = binders_of(cons);
  std::map<std::string, std::string> renames;
  std::string cons_tag;
  const Pattern& target = cons.patterns()[pattern_idx];
  if (target.fields().size() == 3) cons_tag = target.fields()[2].name();
  taken.insert(cons_tag);

  std::size_t counter = 0;
  for (const std::string& b : binders_of(prod)) {
    if (!shape.tag_var.empty() && b == shape.tag_var && !cons_tag.empty()) {
      renames[b] = cons_tag;
      continue;
    }
    std::string fresh = b;
    while (taken.contains(fresh)) {
      fresh = b + "_" + std::to_string(++counter);
    }
    taken.insert(fresh);
    renames[b] = fresh;
  }

  std::vector<Pattern> patterns;
  for (std::size_t i = 0; i < cons.patterns().size(); ++i) {
    if (i == pattern_idx) {
      for (const Pattern& p : prod.patterns()) {
        patterns.push_back(rename_pattern(p, renames));
      }
    } else {
      patterns.push_back(cons.patterns()[i]);
    }
  }

  const std::string value_var = target.fields()[0].name();
  const ExprPtr replacement = rename_vars(shape.out_value, renames);
  const std::vector<std::pair<std::string, ExprPtr>> subst = {
      {value_var, replacement}};
  const ExprPtr guard =
      shape.guard ? rename_vars(shape.guard, renames) : nullptr;

  std::vector<Branch> branches;
  ExprPtr earlier;  // disjunction of earlier (substituted) branch conditions
  bool earlier_unconditional = false;
  for (const Branch& br : cons.branches()) {
    std::vector<std::vector<ExprPtr>> outputs;
    for (const auto& tuple : br.outputs) {
      auto& out = outputs.emplace_back();
      for (const ExprPtr& field : tuple) {
        out.push_back(expr::simplify(expr::substitute(field, subst)));
      }
    }
    if (!guard) {
      Branch nb;
      nb.is_else = br.is_else;
      if (br.condition) {
        nb.condition = expr::simplify(expr::substitute(br.condition, subst));
      }
      nb.outputs = std::move(outputs);
      branches.push_back(std::move(nb));
      continue;
    }
    if (br.is_else) {
      // Dead behind an unconditional branch; otherwise fires when the guard
      // holds but no earlier condition did.
      if (earlier_unconditional) continue;
      ExprPtr cond = earlier
                         ? Expr::binary(BinOp::And, guard,
                                        Expr::unary(UnOp::Not, earlier))
                         : guard;
      branches.push_back(Branch::when(expr::simplify(cond), std::move(outputs)));
      continue;
    }
    if (!br.condition) {
      earlier_unconditional = true;
      branches.push_back(Branch::when(guard, std::move(outputs)));
      continue;
    }
    ExprPtr cond = expr::simplify(expr::substitute(br.condition, subst));
    earlier = earlier ? Expr::binary(BinOp::Or, earlier, cond) : cond;
    branches.push_back(Branch::when(
        expr::simplify(Expr::binary(BinOp::And, guard, cond)),
        std::move(outputs)));
  }
  return Reaction(cons.name(), std::move(patterns), std::move(branches));
}

// ---------------------------------------------------------------------------
// Candidate enumeration (S1/S3/S4 + totality), program-wide.
// ---------------------------------------------------------------------------

struct Candidate {
  std::size_t stage = 0;
  std::size_t prod_idx = 0;
  std::size_t cons_idx = 0;
  std::size_t pattern_idx = 0;
  std::string label;
  ProducerShape shape;
};

/// True when some branch of `r` fires on every match (unconditional or else).
bool consumer_total(const Reaction& r) {
  return std::any_of(r.branches().begin(), r.branches().end(),
                     [](const Branch& br) { return br.condition == nullptr; });
}

std::vector<Candidate> enumerate_candidates(
    const std::vector<std::vector<Reaction>>& stages,
    const std::set<std::string>& forbidden) {
  struct Site {
    std::size_t stage;
    std::size_t idx;
  };
  // Footprint-level producer/consumer sets per label, across every stage:
  // a label is only private when NOTHING else in the program can touch it.
  std::vector<std::vector<gamma::Footprint>> fps(stages.size());
  std::map<std::string, std::vector<Site>> fp_producers;
  std::map<std::string, std::vector<Site>> fp_consumers;
  bool any_wildcard = false;  // a consume_any/produce_any poisons every label
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (std::size_t i = 0; i < stages[s].size(); ++i) {
      gamma::Footprint fp = gamma::reaction_footprint(stages[s][i]);
      any_wildcard |= fp.consume_any || fp.produce_any;
      for (const std::string& l : fp.produce_labels) {
        fp_producers[l].push_back({s, i});
      }
      for (const std::string& l : fp.consume_labels) {
        fp_consumers[l].push_back({s, i});
      }
      fps[s].push_back(std::move(fp));
    }
  }

  std::vector<Candidate> out;
  if (any_wildcard) return out;  // conservative: no label is provably private
  for (std::size_t s = 0; s < stages.size(); ++s) {
    for (std::size_t pi = 0; pi < stages[s].size(); ++pi) {
      auto shape = producer_shape(stages[s][pi]);
      if (!shape) continue;
      const std::string& label = shape->out_label;
      if (forbidden.contains(label)) continue;

      const auto prods = fp_producers.find(label);
      const auto conss = fp_consumers.find(label);
      if (prods == fp_producers.end() || prods->second.size() != 1) continue;
      if (conss == fp_consumers.end() || conss->second.size() != 1) continue;
      const Site cons_site = conss->second[0];
      if (cons_site.stage != s) continue;  // cross-stage: `;` is a barrier
      if (cons_site.idx == pi) continue;   // self-loop label
      const Reaction& cons = stages[s][cons_site.idx];
      if (!consumer_total(cons)) continue;

      // S3: exactly one consuming site, literal label, matching arity, and
      // no binder pattern of the consumer may admit the label.
      std::size_t sites = 0;
      std::size_t pattern_idx = 0;
      bool admits_elsewhere = false;
      for (std::size_t k = 0; k < cons.patterns().size(); ++k) {
        const auto& fields = cons.patterns()[k].fields();
        if (fields.size() < 2) continue;  // arity < 2 can't match labeled
        if (!fields[1].is_binder()) {
          if (fields[1].value().is_str() &&
              fields[1].value().as_str() == label) {
            ++sites;
            pattern_idx = k;
          }
          continue;
        }
        auto admitted = gamma::admitted_labels(cons, fields[1].name());
        if (!admitted || admitted->contains(label)) admits_elsewhere = true;
      }
      if (sites != 1 || admits_elsewhere) continue;
      if (cons.patterns()[pattern_idx].fields().size() !=
          shape->element_arity) {
        continue;
      }

      // S4: the consumed value binder binds exactly once.
      const std::string& vvar =
          cons.patterns()[pattern_idx].fields()[0].name();
      std::size_t binds = 0;
      for (const Pattern& p : cons.patterns()) {
        for (const PatternField& f : p.fields()) {
          if (f.is_binder() && f.name() == vvar) ++binds;
        }
      }
      if (binds != 1) continue;

      Candidate c;
      c.stage = s;
      c.prod_idx = pi;
      c.cons_idx = cons_site.idx;
      c.pattern_idx = pattern_idx;
      c.label = label;
      c.shape = *shape;
      out.push_back(std::move(c));
    }
  }
  // Deterministic planning order: by eliminated label, then position.
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return std::tie(a.label, a.stage, a.prod_idx) <
           std::tie(b.label, b.stage, b.prod_idx);
  });
  return out;
}

// ---------------------------------------------------------------------------
// S7: probe verification.
// ---------------------------------------------------------------------------

std::optional<Multiset> probe_fixpoint(const Program& program,
                                       const Multiset& initial,
                                       std::uint64_t seed) {
  gamma::RunOptions ro;
  ro.seed = seed;
  ro.max_steps = kVerifyMaxSteps;
  ro.limit_policy = LimitPolicy::Partial;
  gamma::RunResult r = gamma::IndexedEngine().run(program, initial, ro);
  if (r.outcome != Outcome::Completed) return std::nullopt;
  return std::move(r.final_multiset);
}

/// Three seeded runs each; any disagreement (or budget exhaustion) rejects.
/// Also rejects when the ORIGINAL program's fixpoint varies across seeds —
/// a non-confluent program has no single state identity to preserve.
bool fixpoints_agree(const Program& original, const Program& rewritten,
                     const Multiset& initial, std::uint64_t seed) {
  std::optional<Multiset> reference;
  for (std::uint64_t k = 0; k < 3; ++k) {
    const std::uint64_t s = seed + k * 0x9e3779b97f4a7c15ULL;
    auto fa = probe_fixpoint(original, initial, s);
    auto fb = probe_fixpoint(rewritten, initial, s);
    if (!fa || !fb || !(*fa == *fb)) return false;
    if (reference && !(*reference == *fa)) return false;
    if (!reference) reference = std::move(fa);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Dead-reaction elimination.
// ---------------------------------------------------------------------------

/// True when no branch of `r` can ever fire: every branch carries a
/// condition folding to literal false. An else (or unconditional) branch
/// always fires once the patterns match, so its presence keeps the
/// reaction alive.
bool provably_unsatisfiable(const Reaction& r) {
  for (const Branch& br : r.branches()) {
    if (!br.condition) return false;  // unconditional or else fires
    if (expr::constant_truth(br.condition) != std::optional<bool>{false}) {
      return false;  // unknown or true: may fire
    }
  }
  return true;
}

void eliminate_dead(std::vector<std::vector<Reaction>>& stages,
                    const Multiset& initial, OptimizeReport& report) {
  bool changed = true;
  while (changed) {
    changed = false;
    // (a) unsatisfiable conditions — initial-independent.
    for (auto& stage : stages) {
      for (std::size_t i = 0; i < stage.size();) {
        if (provably_unsatisfiable(stage[i])) {
          report.dead.push_back(
              {Severity::Warning, "unsatisfiable-reaction", stage[i].name(),
               "every branch condition folds to false; removed"});
          ++report.dead_removed;
          stage.erase(stage.begin() + static_cast<std::ptrdiff_t>(i));
          changed = true;
          continue;
        }
        ++i;
      }
    }
    // (b) cardinality-zero pattern labels — only sound against a known
    // initial store (symbolic bounds would mark everything dead).
    if (initial.empty()) continue;
    const BoundednessReport bounds =
        analyze_boundedness(Program::from_stages(stages), initial);
    for (auto& stage : stages) {
      for (std::size_t i = 0; i < stage.size();) {
        std::string dead_label;
        for (const Pattern& p : stage[i].patterns()) {
          const auto& fields = p.fields();
          if (fields.size() < 2 || fields[1].is_binder() ||
              !fields[1].value().is_str()) {
            continue;
          }
          const auto it = bounds.labels.find(fields[1].value().as_str());
          if (it != bounds.labels.end() && !it->second.unbounded() &&
              it->second.bound == 0) {
            dead_label = it->first;
            break;
          }
        }
        if (!dead_label.empty()) {
          report.dead.push_back(
              {Severity::Warning, "unreachable-reaction", stage[i].name(),
               "pattern label '" + dead_label +
                   "' is unreachable from the initial store through the feed "
                   "graph; removed"});
          ++report.dead_removed;
          stage.erase(stage.begin() + static_cast<std::ptrdiff_t>(i));
          changed = true;
          continue;
        }
        ++i;
      }
    }
  }
}

}  // namespace

const char* to_string(RewriteStatus status) noexcept {
  switch (status) {
    case RewriteStatus::Applied: return "applied";
    case RewriteStatus::RejectedByCost: return "rejected-by-cost";
    case RewriteStatus::RejectedByVerify: return "rejected-by-verify";
  }
  return "?";
}

OptimizeOptions reduction_options() {
  OptimizeOptions options;
  options.use_cost_model = false;
  options.eliminate_dead = false;
  return options;
}

OptimizeResult optimize_program(const Program& program, const Multiset& initial,
                                const OptimizeOptions& options) {
  OptimizeResult out;
  OptimizeReport& report = out.report;
  report.bounds = analyze_boundedness(program, initial);
  report.cost_before =
      estimate_program_cost(program, report.bounds, options.cost);

  InterferenceOptions iopts;
  iopts.probe_states = 0;  // structure only; no commutation probing here
  const InterferenceReport before = analyze_interference(program, initial, iopts);
  report.classes_before = before.class_count;

  std::set<std::string> forbidden(options.preserve_labels.begin(),
                                  options.preserve_labels.end());
  for (const Element& e : initial) {
    if (e.arity() >= 2 && e.field(1).is_str()) {
      forbidden.insert(e.field(1).as_str());
    }
  }

  std::vector<std::vector<Reaction>> stages = program.stages();
  if (options.eliminate_dead) eliminate_dead(stages, initial, report);

  std::set<std::string> seen;      // labels already counted as chains
  std::set<std::string> rejected;  // labels not to retry
  std::size_t applied = 0;
  while (options.max_steps == 0 || applied < options.max_steps) {
    bool did = false;
    for (const Candidate& c : enumerate_candidates(stages, forbidden)) {
      if (rejected.contains(c.label)) continue;
      if (seen.insert(c.label).second) ++report.chains_found;

      const Reaction fused =
          fuse_pair(stages[c.stage][c.cons_idx], c.pattern_idx,
                    stages[c.stage][c.prod_idx], c.shape);
      std::vector<Reaction> new_stage;
      new_stage.reserve(stages[c.stage].size() - 1);
      for (std::size_t i = 0; i < stages[c.stage].size(); ++i) {
        if (i == c.prod_idx) continue;
        new_stage.push_back(i == c.cons_idx ? fused : stages[c.stage][i]);
      }

      PlannedRewrite rw;
      rw.producer = stages[c.stage][c.prod_idx].name();
      rw.consumer = stages[c.stage][c.cons_idx].name();
      rw.via_label = c.label;
      rw.conditional_producer = c.shape.guard != nullptr;
      rw.cost_before =
          estimate_stage_cost(stages[c.stage], report.bounds, options.cost)
              .time;
      rw.cost_after =
          estimate_stage_cost(new_stage, report.bounds, options.cost).time;

      if (options.use_cost_model && rw.cost_after > rw.cost_before) {
        rw.status = RewriteStatus::RejectedByCost;
        ++report.rejected_by_cost;
        rejected.insert(c.label);
        report.rewrites.push_back(std::move(rw));
        continue;
      }
      if (!initial.empty()) {
        auto candidate_stages = stages;
        candidate_stages[c.stage] = new_stage;
        if (!fixpoints_agree(Program::from_stages(stages),
                             Program::from_stages(candidate_stages), initial,
                             options.seed)) {
          rw.status = RewriteStatus::RejectedByVerify;
          ++report.rejected_by_verify;
          rejected.insert(c.label);
          report.rewrites.push_back(std::move(rw));
          continue;
        }
      }
      stages[c.stage] = std::move(new_stage);
      rw.status = RewriteStatus::Applied;
      ++report.fused;
      ++applied;
      report.rewrites.push_back(std::move(rw));
      did = true;
      break;  // candidate set is stale; re-enumerate
    }
    if (!did) break;
  }

  out.program = Program::from_stages(std::move(stages));
  report.cost_after =
      estimate_program_cost(out.program, report.bounds, options.cost);

  // Post-rewrite re-verification: reactions that were in DIFFERENT conflict
  // classes before must still be separated — fusion only removes labels, so
  // a merge would invalidate the parallelism the cost model priced.
  const InterferenceReport after =
      analyze_interference(out.program, initial, iopts);
  report.classes_after = after.class_count;
  const auto cb = before.engine_classes();
  const auto ca = after.engine_classes();
  for (auto i = ca.begin(); i != ca.end(); ++i) {
    const auto bi = cb.find(i->first);
    if (bi == cb.end()) continue;
    for (auto j = std::next(i); j != ca.end(); ++j) {
      const auto bj = cb.find(j->first);
      if (bj == cb.end()) continue;
      if (bi->second != bj->second && i->second == j->second) {
        report.class_check_ok = false;
      }
    }
  }

  if (options.telemetry != nullptr) {
    auto& stats = options.telemetry->stats();
    stats.count("opt.chains_found", report.chains_found);
    stats.count("opt.fused", report.fused);
    stats.count("opt.rejected_by_cost", report.rejected_by_cost);
    stats.count("opt.rejected_by_verify", report.rejected_by_verify);
    stats.count("opt.dead_removed", report.dead_removed);
  }
  return out;
}

LintReport optimizer_lints(const Program& program, const Multiset& initial) {
  LintReport report;
  const BoundednessReport bounds = analyze_boundedness(program, initial);
  for (const auto& [label, lb] : bounds.labels) {
    if (!lb.unbounded()) continue;
    report.findings.push_back(
        {Severity::Warning, "possibly-unbounded-label", "",
         "label '" + label +
             "' has no finite cardinality bound; a growth cycle may feed it "
             "(and the run) forever"});
  }
  if (bounds.overall == Growth::PossiblyUnbounded && !bounds.any_unbounded()) {
    report.findings.push_back(
        {Severity::Warning, "possibly-unbounded-multiset", "",
         "an unlabeled, non-shrinking reaction has no firing bound; the "
         "multiset may grow (or the run spin) forever"});
  }

  std::set<std::string> produced;
  for (const Reaction* r : program.all_reactions()) {
    const gamma::Footprint fp = gamma::reaction_footprint(*r);
    produced.insert(fp.produce_labels.begin(), fp.produce_labels.end());
  }
  for (const Reaction* r : program.all_reactions()) {
    if (provably_unsatisfiable(*r)) {
      report.findings.push_back(
          {Severity::Warning, "unsatisfiable-reaction", r->name(),
           "every branch condition folds to false; the reaction can never "
           "fire"});
      continue;
    }
    if (initial.empty()) continue;
    for (const Pattern& p : r->patterns()) {
      const auto& fields = p.fields();
      if (fields.size() < 2 || fields[1].is_binder() ||
          !fields[1].value().is_str()) {
        continue;
      }
      const std::string label = fields[1].value().as_str();
      // The basic dead-reaction lint (Error) already covers labels nobody
      // produces; this one catches producers that exist but can never fire.
      if (!produced.contains(label)) continue;
      const auto it = bounds.labels.find(label);
      if (it != bounds.labels.end() && !it->second.unbounded() &&
          it->second.bound == 0) {
        report.findings.push_back(
            {Severity::Warning, "unreachable-reaction", r->name(),
             "pattern label '" + label +
                 "' is unreachable from the initial store through the feed "
                 "graph"});
        break;
      }
    }
  }
  return report;
}

std::string OptimizeReport::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const OptimizeReport& report) {
  os << "optimize: " << report.fused << " fused, " << report.rejected_by_cost
     << " rejected by cost, " << report.rejected_by_verify
     << " rejected by verify, " << report.dead_removed << " dead removed ("
     << report.chains_found << " chains found)\n"
     << "  program cost estimate: " << report.cost_before << " -> "
     << report.cost_after << '\n'
     << "  conflict classes: " << report.classes_before << " -> "
     << report.classes_after
     << (report.class_check_ok ? " (check ok)" : " (CLASS CHECK FAILED)")
     << '\n';
  for (const PlannedRewrite& rw : report.rewrites) {
    os << "  fuse " << rw.producer << " -> " << rw.consumer << " via '"
       << rw.via_label << "' [" << to_string(rw.status) << "]"
       << (rw.conditional_producer ? " (guarded producer)" : "")
       << " stage cost " << rw.cost_before << " -> " << rw.cost_after << '\n';
  }
  for (const Finding& f : report.dead) {
    os << "  dead " << f.reaction << ": " << f.message << '\n';
  }
  os << "  bounds (" << (report.bounds.initial_known ? "absolute" : "symbolic")
     << ", overall " << to_string(report.bounds.overall) << "):";
  if (report.bounds.labels.empty()) os << " no labels";
  os << '\n';
  for (const auto& [label, lb] : report.bounds.labels) {
    os << "    '" << label << "' " << to_string(lb.growth);
    if (!lb.unbounded()) os << " <= " << lb.bound;
    os << '\n';
  }
  return os;
}

void write_json(std::ostream& os, const OptimizeReport& report) {
  os << "{\"chains_found\":" << report.chains_found
     << ",\"fused\":" << report.fused
     << ",\"rejected_by_cost\":" << report.rejected_by_cost
     << ",\"rejected_by_verify\":" << report.rejected_by_verify
     << ",\"dead_removed\":" << report.dead_removed
     << ",\"cost_before\":" << report.cost_before
     << ",\"cost_after\":" << report.cost_after
     << ",\"classes_before\":" << report.classes_before
     << ",\"classes_after\":" << report.classes_after << ",\"class_check_ok\":"
     << (report.class_check_ok ? "true" : "false") << ",\"rewrites\":[";
  for (std::size_t i = 0; i < report.rewrites.size(); ++i) {
    const PlannedRewrite& rw = report.rewrites[i];
    if (i) os << ',';
    os << "{\"producer\":" << json_quote(rw.producer) << ",\"consumer\":"
       << json_quote(rw.consumer) << ",\"via\":" << json_quote(rw.via_label)
       << ",\"status\":\"" << to_string(rw.status)
       << "\",\"conditional_producer\":"
       << (rw.conditional_producer ? "true" : "false")
       << ",\"cost_before\":" << rw.cost_before
       << ",\"cost_after\":" << rw.cost_after << '}';
  }
  os << "],\"dead\":[";
  for (std::size_t i = 0; i < report.dead.size(); ++i) {
    const Finding& f = report.dead[i];
    if (i) os << ',';
    os << "{\"check\":" << json_quote(f.check) << ",\"reaction\":"
       << json_quote(f.reaction) << ",\"message\":" << json_quote(f.message)
       << '}';
  }
  os << "],\"bounds\":{\"initial_known\":"
     << (report.bounds.initial_known ? "true" : "false") << ",\"overall\":\""
     << analysis::to_string(report.bounds.overall) << "\",\"labels\":[";
  bool first = true;
  for (const auto& [label, lb] : report.bounds.labels) {
    if (!first) os << ',';
    first = false;
    os << "{\"label\":" << json_quote(label) << ",\"growth\":\""
       << analysis::to_string(lb.growth) << '"';
    if (!lb.unbounded()) os << ",\"bound\":" << lb.bound;
    os << '}';
  }
  os << "]}}";
}

}  // namespace gammaflow::analysis
