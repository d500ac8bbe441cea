// Gamma program: reactions composed with the parallel operator `|` and the
// sequential operator `;` ([13], [15]-[17]). We normalize composition to a
// pipeline of stages: each stage is a set of reactions executed to their
// combined fixed point (all in parallel, `R1|R2|...`); `;` chains stages.
// This covers every program in the paper (which uses pure `|`) plus the
// staged programs classic Gamma examples need (e.g. sort-then-select).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::gamma {

class Program {
 public:
  Program() = default;
  /// Single-stage program from one reaction.
  explicit Program(Reaction r) : stages_{{std::move(r)}} {}
  /// Single-stage program R1 | R2 | ... | Rn.
  explicit Program(std::vector<Reaction> reactions)
      : stages_{std::move(reactions)} {
    if (stages_.back().empty()) stages_.clear();
  }

  /// Builds a program directly from a stage list, dropping empty stages
  /// (an empty stage is a no-op fixpoint). This is the shape rewrite passes
  /// produce when they edit stages in place — expand_program and the
  /// optimizer's fusion planner reassemble through here.
  [[nodiscard]] static Program from_stages(
      std::vector<std::vector<Reaction>> stages);

  /// `a | b`: merges two programs into one combined-fixpoint stage.
  /// Requires both to be single-stage (composing `;` under `|` has no
  /// agreed-upon semantics in the Gamma calculus and is rejected).
  friend Program operator|(Program a, Program b);

  /// `a ; b` — run a to fixpoint, then b.
  [[nodiscard]] Program then(Program next) const;

  [[nodiscard]] const std::vector<std::vector<Reaction>>& stages() const noexcept {
    return stages_;
  }
  [[nodiscard]] std::size_t stage_count() const noexcept { return stages_.size(); }
  [[nodiscard]] std::size_t reaction_count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return stages_.empty(); }

  /// All reactions across stages, in order (diagnostics, conversion).
  [[nodiscard]] std::vector<const Reaction*> all_reactions() const;

  /// Finds a reaction by name anywhere in the program; nullptr if absent.
  [[nodiscard]] const Reaction* find(const std::string& name) const noexcept;

  /// DSL rendering of the whole program (stages joined by ';', reactions by
  /// blank lines) — parseable by gamma::dsl::parse_program.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::vector<Reaction>> stages_;
};

std::ostream& operator<<(std::ostream& os, const Program& p);

}  // namespace gammaflow::gamma
