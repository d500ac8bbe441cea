#include "gammaflow/analysis/cost.hpp"

#include <algorithm>
#include <limits>

#include "gammaflow/gamma/footprint.hpp"

namespace gammaflow::analysis {

using expr::Expr;
using gamma::Branch;
using gamma::Element;
using gamma::Multiset;
using gamma::Pattern;
using gamma::Program;
using gamma::Reaction;

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

std::size_t sat_add(std::size_t a, std::size_t b) {
  if (a == kInf || b == kInf || a > kInf - b) return kInf;
  return a + b;
}

std::size_t sat_mul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kInf || b == kInf || a > kInf / b) return kInf;
  return a * b;
}

/// Label traffic of one reaction, split by soundness direction: `consumed`
/// only counts patterns GUARANTEED to take an element of that label (literal
/// label field, or a binder whose condition pins a singleton), so dividing a
/// label bound by it under-counts nothing; `produced_max` counts every
/// output that COULD carry the label (max across branches), and `any_max`
/// the outputs whose label cannot be resolved at all — each such output may
/// land on ANY label, so it contributes 1 to every label's production.
struct ReactionUse {
  std::map<std::string, std::size_t> consumed;
  std::map<std::string, std::size_t> produced_max;
  std::size_t any_max = 0;
  bool unlabeled_outputs = false;
};

ReactionUse reaction_use(const Reaction& r) {
  ReactionUse u;
  for (const Pattern& p : r.patterns()) {
    const auto& fields = p.fields();
    if (fields.size() < 2) continue;  // unlabeled elements: no label traffic
    if (!fields[1].is_binder()) {
      if (fields[1].value().is_str()) ++u.consumed[fields[1].value().as_str()];
      continue;
    }
    if (auto bounds = gamma::admitted_labels(r, fields[1].name());
        bounds && bounds->size() == 1) {
      ++u.consumed[*bounds->begin()];
    }
  }
  for (const Branch& br : r.branches()) {
    std::map<std::string, std::size_t> per_branch;
    std::size_t any_here = 0;
    for (const auto& tuple : br.outputs) {
      if (tuple.size() < 2) {
        u.unlabeled_outputs = true;
        continue;
      }
      const auto& label = tuple[1];
      if (label->kind() == Expr::Kind::Literal && label->literal().is_str()) {
        ++per_branch[label->literal().as_str()];
        continue;
      }
      if (label->kind() == Expr::Kind::Var) {
        if (auto bounds = gamma::admitted_labels(r, label->var())) {
          for (const auto& l : *bounds) ++per_branch[l];
          continue;
        }
      }
      ++any_here;
    }
    for (const auto& [l, n] : per_branch) {
      u.produced_max[l] = std::max(u.produced_max[l], n);
    }
    u.any_max = std::max(u.any_max, any_here);
  }
  return u;
}

std::size_t produced_to(const ReactionUse& u, const std::string& label) {
  const auto it = u.produced_max.find(label);
  return sat_add(it == u.produced_max.end() ? 0 : it->second, u.any_max);
}

/// Cumulative firing bound: each firing removes `consumed[l]` elements of l,
/// and at most bound(l) elements of l ever exist, so fires <= bound/mult.
/// A reaction with no guaranteed label consumption cannot be bounded.
std::size_t fires_bound(const ReactionUse& u,
                        const std::map<std::string, std::size_t>& bound) {
  if (u.consumed.empty()) return kInf;
  std::size_t fires = kInf;
  for (const auto& [l, mult] : u.consumed) {
    const auto it = bound.find(l);
    const std::size_t b = it == bound.end() ? 0 : it->second;
    fires = std::min(fires, b == kInf ? kInf : b / mult);
  }
  return fires;
}

std::size_t max_outputs(const Reaction& r) {
  std::size_t n = 0;
  for (const Branch& br : r.branches()) n = std::max(n, br.outputs.size());
  return n;
}

}  // namespace

const char* to_string(Growth g) noexcept {
  switch (g) {
    case Growth::Shrinking: return "shrinking";
    case Growth::Bounded: return "bounded";
    case Growth::PossiblyUnbounded: return "possibly-unbounded";
  }
  return "?";
}

std::size_t BoundednessReport::bound_or(const std::string& label,
                                        std::size_t fallback) const {
  const auto it = labels.find(label);
  if (it == labels.end() || it->second.unbounded()) return fallback;
  return it->second.bound;
}

bool BoundednessReport::any_unbounded() const {
  return std::any_of(labels.begin(), labels.end(),
                     [](const auto& kv) { return kv.second.unbounded(); });
}

BoundednessReport analyze_boundedness(const Program& program,
                                      const Multiset& initial) {
  BoundednessReport report;
  report.initial_known = !initial.empty();

  std::vector<const Reaction*> reactions = program.all_reactions();
  std::vector<ReactionUse> uses;
  uses.reserve(reactions.size());
  for (const Reaction* r : reactions) uses.push_back(reaction_use(*r));

  std::map<std::string, std::size_t> seed;
  for (const Element& e : initial) {
    if (e.arity() >= 2 && e.field(1).is_str()) ++seed[e.field(1).as_str()];
  }
  std::set<std::string> universe;
  for (const auto& [l, n] : seed) universe.insert(l);
  for (const ReactionUse& u : uses) {
    for (const auto& [l, n] : u.consumed) universe.insert(l);
    for (const auto& [l, n] : u.produced_max) universe.insert(l);
  }
  // Without an initial store the bounds are symbolic: one element per label,
  // enough to expose growth cycles but not to prove anything dead.
  if (!report.initial_known) {
    for (const std::string& l : universe) seed[l] = 1;
  }

  // A label is non-increasing when every reaction consumes at least as many
  // of it as it can produce — its population never exceeds the seed.
  std::set<std::string> non_increasing;
  for (const std::string& l : universe) {
    bool ok = true;
    for (const ReactionUse& u : uses) {
      const auto it = u.consumed.find(l);
      const std::size_t consumed = it == u.consumed.end() ? 0 : it->second;
      if (produced_to(u, l) > consumed) {
        ok = false;
        break;
      }
    }
    if (ok) non_increasing.insert(l);
  }

  // Kleene iteration of ever(l) = seed(l) + sum_r fires(r) * produced(r,l) —
  // the CUMULATIVE count of elements that ever exist under l, which is what
  // bounds firings (each firing consumes distinct elements). It must be
  // tracked even for non-increasing labels: a self-feeding reaction keeps
  // its label's live population at the seed while minting fresh elements
  // every firing, so the cumulative count (and the firing bound) diverges.
  // Labels still climbing past the sweep cap widen to infinity; the
  // post-cap sweeps terminate because each one either stabilizes or turns
  // at least one more label infinite.
  std::map<std::string, std::size_t> ever;
  for (const std::string& l : universe) {
    ever[l] = seed.count(l) != 0 ? seed[l] : 0;
  }
  const std::size_t sweep_cap = 8 + 2 * universe.size();
  for (std::size_t sweep = 0;; ++sweep) {
    std::vector<std::size_t> fires;
    fires.reserve(uses.size());
    for (const ReactionUse& u : uses) fires.push_back(fires_bound(u, ever));

    std::set<std::string> climbed;
    for (const std::string& l : universe) {
      std::size_t total = seed.count(l) != 0 ? seed[l] : 0;
      for (std::size_t i = 0; i < uses.size(); ++i) {
        const std::size_t pm = produced_to(uses[i], l);
        if (pm == 0) continue;
        total = sat_add(total, sat_mul(fires[i], pm));
      }
      if (total > ever[l]) {
        ever[l] = total;
        climbed.insert(l);
      }
    }
    if (climbed.empty()) break;
    if (sweep >= sweep_cap) {
      for (const std::string& l : climbed) ever[l] = kInf;
    }
  }

  // Reported bounds are LIVE-population bounds (what a match scan can see):
  // non-increasing labels sit at their seed count even when their
  // cumulative count diverges; everything else is over-approximated by the
  // cumulative count.
  for (const std::string& l : universe) {
    LabelBound lb;
    if (non_increasing.contains(l)) {
      lb.bound = seed.count(l) != 0 ? seed[l] : 0;
      lb.growth = Growth::Shrinking;
    } else if (ever[l] == kInf) {
      lb.growth = Growth::PossiblyUnbounded;
    } else {
      lb.bound = ever[l];
      lb.growth = Growth::Bounded;
    }
    report.labels.emplace(l, lb);
  }

  // Whole-multiset verdict. Unlabeled production escapes the label map, so
  // fold it in per reaction: an unlabeled-producing, non-shrinking reaction
  // whose firings cannot be bounded may grow (or spin) forever.
  report.overall = report.any_unbounded() ? Growth::PossiblyUnbounded
                                          : Growth::Bounded;
  if (report.overall == Growth::Bounded) {
    for (std::size_t i = 0; i < uses.size(); ++i) {
      if ((uses[i].unlabeled_outputs || uses[i].any_max > 0) &&
          !reactions[i]->is_shrinking() &&
          fires_bound(uses[i], ever) == kInf) {
        report.overall = Growth::PossiblyUnbounded;
        break;
      }
    }
  }
  if (report.overall == Growth::Bounded &&
      std::all_of(reactions.begin(), reactions.end(),
                  [](const Reaction* r) { return r->is_shrinking(); })) {
    report.overall = Growth::Shrinking;
  }
  return report;
}

ReactionCost estimate_reaction_cost(const Reaction& reaction,
                                    const BoundednessReport& bounds,
                                    const CostParams& params) {
  ReactionCost cost;
  cost.instrs = reaction.compiled().instr_count();

  // Live population per pattern: the label bound when one is pinned,
  // assumed_scale for wildcards and unbounded labels.
  cost.live = 1;
  for (const Pattern& p : reaction.patterns()) {
    const auto& fields = p.fields();
    std::size_t pop = params.assumed_scale;
    if (fields.size() >= 2 && !fields[1].is_binder() &&
        fields[1].value().is_str()) {
      pop = bounds.bound_or(fields[1].value().as_str(), params.assumed_scale);
    }
    cost.live = std::max(cost.live, pop);
  }

  const ReactionUse use = reaction_use(reaction);
  std::map<std::string, std::size_t> label_bounds;
  for (const auto& [l, lb] : bounds.labels) {
    label_bounds[l] = lb.unbounded() ? kInf : lb.bound;
  }
  const std::size_t fb = fires_bound(use, label_bounds);
  cost.fires = fb == kInf ? static_cast<double>(params.assumed_scale)
                          : static_cast<double>(fb);

  const auto arity = static_cast<double>(reaction.arity());
  cost.per_fire =
      params.c_match * arity * static_cast<double>(cost.live) +
      params.c_instr * static_cast<double>(cost.instrs) +
      params.c_store * (arity + static_cast<double>(max_outputs(reaction)));
  cost.work = cost.fires * cost.per_fire;
  return cost;
}

StageCost estimate_stage_cost(const std::vector<Reaction>& stage,
                              const BoundednessReport& bounds,
                              const CostParams& params) {
  StageCost sc;
  for (const Reaction& r : stage) {
    const ReactionCost rc = estimate_reaction_cost(r, bounds, params);
    sc.work += rc.work;
    sc.concurrency += rc.fires;
  }
  const double lanes =
      std::min(static_cast<double>(params.workers), std::max(sc.concurrency, 1.0));
  sc.time = sc.work / std::max(lanes, 1.0);
  return sc;
}

double estimate_program_cost(const Program& program,
                             const BoundednessReport& bounds,
                             const CostParams& params) {
  double total = 0;
  for (const auto& stage : program.stages()) {
    total += estimate_stage_cost(stage, bounds, params).time;
  }
  return total;
}

}  // namespace gammaflow::analysis
