// Reaction footprints — which labels a reaction can consume and which it can
// produce. Algorithm 1 (paper §III-A1) turns every token-merge port into a
// label binder guarded by `(x=='A1') or (x=='A11')`, so this recognizer is
// what every static pass (analysis/lint, analysis/interference, analysis/
// optimize, analysis/cost) and the serve wake index (runtime/worklist) ask.
// Over-approximate by construction: a pattern or output whose label cannot
// be bounded is a wildcard that overlaps everything.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gammaflow/gamma/program.hpp"

namespace gammaflow::gamma {

/// What one reaction can touch, as label/arity keys. `labels` hold the
/// bounded label universe (patterns with a literal label field, or a label
/// binder constrained by a pure disjunction of equalities in every branch);
/// `arities` hold unlabeled element shapes (classic Gamma `replace x, y`);
/// `any` means the bound failed and the side overlaps everything.
struct Footprint {
  std::set<std::string> consume_labels;
  std::set<std::size_t> consume_arities;
  bool consume_any = false;
  std::set<std::string> produce_labels;
  std::set<std::size_t> produce_arities;
  bool produce_any = false;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] Footprint reaction_footprint(const Reaction& reaction);

/// One footprint per reaction of `program`, in all_reactions() order: the
/// form the worklist's wakeup index takes.
[[nodiscard]] std::vector<Footprint> program_footprints(const Program& program);

/// Labels a binder in the label position can take, derived from the pure
/// positive structure of branch conditions (`var == 'lit'` disjunctions; And
/// intersects, Or unions). nullopt when the binder may admit any label.
/// Exposed for the optimizer's private-intermediate proofs, which need the
/// bound per pattern rather than folded into the whole-reaction footprint.
[[nodiscard]] std::optional<std::set<std::string>> admitted_labels(
    const Reaction& reaction, const std::string& var);

}  // namespace gammaflow::gamma
