// §III-A3 "Reductions", inverse direction: expansion of a coarse reaction
// (Rd1) back into binary-operator reactions (R1,R2,R3). The forward fusion
// is analysis::optimize_program with the cost gate and dead-reaction
// elimination off (analysis/optimize.hpp). bench_reductions quantifies the
// paper's observation that after fusion "the opportunity to explore the
// parallelism of reactions decreases".
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "gammaflow/gamma/program.hpp"

namespace gammaflow::translate {

/// Inverse reduction: splits one k-ary unconditional expression reaction
/// into binary-operator reactions with fresh intermediate labels (Rd1 ->
/// R1,R2,R3 shape). `fresh` generates intermediate label names; defaults to
/// "<name>_t<k>". A reaction that does not fit the expandable shape is
/// returned unchanged; pass `skip_reason` to learn why (set to a one-line
/// explanation on skip, cleared on success).
[[nodiscard]] std::vector<gamma::Reaction> expand_reaction(
    const gamma::Reaction& reaction,
    const std::function<std::string(std::size_t)>& fresh = nullptr,
    std::string* skip_reason = nullptr);

/// One reaction expand_program left untouched, and why. Historically these
/// skips were invisible — a program could come back verbatim with no hint
/// which shape requirement failed.
struct ExpandSkip {
  std::string reaction;
  std::string reason;
};

/// Expands every eligible reaction, stage by stage (stage boundaries are
/// preserved; reactions never move across a `;`). Reactions left unchanged
/// are appended to `skips` with the reason, when provided.
[[nodiscard]] gamma::Program expand_program(
    const gamma::Program& program, std::vector<ExpandSkip>* skips = nullptr);

}  // namespace gammaflow::translate
