// Analysis-driven §III-A3 auto-reduction: a fusion planner that walks the
// interference graph's feed edges, proves producer->consumer rewrites safe
// with the footprint machinery, gates them on the cost model (analysis/cost),
// and double-checks every applied rewrite by probing original-vs-rewritten
// fixpoints. It is the one implementation of the paper's R1,R2,R3 -> Rd1
// reduction: `gammaflow fuse` runs it with the cost gate and dead-reaction
// elimination off, `gammaflow optimize` with both on. Multi-hop chains fall
// out of iterating single safe steps, and producers may carry one guard
// condition (the fused consumer conjoins it into every branch).
//
// Safety obligations for fusing producer P (output label L) into consumer C:
//   S1  L is PRIVATE: across the whole program, P is the only reaction whose
//       footprint can produce L and C the only one that can consume it (no
//       wildcard producers/consumers anywhere), L is absent from the initial
//       multiset and not preserved by options.
//   S2  P has one branch with one output; the branch is unconditional or
//       carries one guard whose variables are P's own binders (the guard
//       then commutes: its value is fixed by the matched elements, so
//       deciding it at the fused match sees exactly what P saw).
//   S3  C consumes L at exactly one pattern site, with a literal label and
//       matching arity; no other pattern of C can admit L.
//   S4  C's consumed value binder binds exactly once (a repeat binder is an
//       equality constraint substitution would drop).
//   S5  The tag field, when present, is preserved verbatim by P.
//   S6  C is TOTAL: some branch fires on every match (unconditional or
//       else). A partial consumer strands unconsumed intermediates under L
//       at the fixpoint — a state the fused program cannot represent.
//   S7  The rewritten stage's probed fixpoint matches the original's from
//       the actual initial store (three seeds of at most kVerifyMaxSteps
//       fires each; any mismatch or exhausted budget reverts the rewrite).
//       Skipped when the initial store is empty. This is the net under the
//       statically undecidable production/consumption balance: e.g. a
//       leftover element under L with no partner is representable in the
//       unfused program only.
//
// After planning, the pass re-runs the interference analysis on the result
// and verifies the conflict classes did not get COARSER than it assumed —
// fusion removes labels, so classes may only split or stay; a merge would
// mean the cost model priced parallelism that does not exist.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "gammaflow/analysis/cost.hpp"
#include "gammaflow/analysis/lint.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"

namespace gammaflow::obs {
class Telemetry;
}  // namespace gammaflow::obs

namespace gammaflow::analysis {

/// Firing budget per S7 verification probe. A program whose fixpoint needs
/// more fires is left unfused (exhausting the budget rejects the rewrite).
inline constexpr std::uint64_t kVerifyMaxSteps = 4096;

struct OptimizeOptions {
  /// Labels never eliminated as intermediates (program results).
  std::vector<std::string> preserve_labels;
  /// Cap on applied fusion steps (0 = run to fixpoint).
  std::size_t max_steps = 0;
  /// Gate rewrites on the cost model; off applies every safe fusion.
  bool use_cost_model = true;
  /// Remove dead reactions (unsatisfiable condition, or — with a known
  /// initial store — label cardinality provably zero).
  bool eliminate_dead = true;
  /// Seed of the S7 verification probes.
  std::uint64_t seed = 1;
  CostParams cost;
  /// Optional sink for opt.* counters (chains_found, fused,
  /// rejected_by_cost, rejected_by_verify, dead_removed).
  obs::Telemetry* telemetry = nullptr;
};

enum class RewriteStatus {
  Applied,
  RejectedByCost,
  RejectedByVerify,
};
const char* to_string(RewriteStatus status) noexcept;

/// One planned single-step fusion (multi-hop chains appear as a sequence of
/// these collapsing into the same surviving consumer).
struct PlannedRewrite {
  std::string producer;
  std::string consumer;
  std::string via_label;
  bool conditional_producer = false;
  /// Stage time (cost model) before/after, for the gated decision.
  double cost_before = 0;
  double cost_after = 0;
  RewriteStatus status = RewriteStatus::Applied;
};

struct OptimizeReport {
  std::size_t chains_found = 0;  // distinct candidate fusion steps seen
  std::size_t fused = 0;
  std::size_t rejected_by_cost = 0;
  std::size_t rejected_by_verify = 0;
  std::size_t dead_removed = 0;
  std::vector<PlannedRewrite> rewrites;
  /// Dead reactions removed, as lint-style findings.
  std::vector<Finding> dead;
  /// Boundedness of the ORIGINAL program (the planner's input facts).
  BoundednessReport bounds;
  double cost_before = 0;  // program cost estimate, original
  double cost_after = 0;   // program cost estimate, optimized
  /// Post-rewrite class re-verification: conflict classes per stage did not
  /// get coarser than planned. A false here is a planner bug, not a user
  /// error; the CLI exits non-zero on it.
  bool class_check_ok = true;
  std::size_t classes_before = 0;
  std::size_t classes_after = 0;

  [[nodiscard]] std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const OptimizeReport& report);

/// Machine-readable form (one JSON object) for `gammaflow optimize --json`.
void write_json(std::ostream& os, const OptimizeReport& report);

struct OptimizeResult {
  gamma::Program program;
  OptimizeReport report;
};

/// Options for the paper's §III-A3 reduction as `gammaflow fuse` runs it:
/// every fusion the planner proves safe (S1–S7), with the cost gate and
/// dead-reaction elimination off.
[[nodiscard]] OptimizeOptions reduction_options();

/// Runs dead-reaction elimination then the fusion planner to fixpoint.
/// Deterministic for fixed inputs and options (candidate order is by label
/// name; probes are seeded).
[[nodiscard]] OptimizeResult optimize_program(const gamma::Program& program,
                                              const gamma::Multiset& initial,
                                              const OptimizeOptions& options = {});

/// The optimizer's analyses as lints for `gammaflow check`: per-label
/// possibly-unbounded growth (divergence risk), whole-multiset growth,
/// unsatisfiable-branch dead reactions, and — when `initial` is non-empty —
/// reactions unreachable through the feed graph. Merged into lint_program's
/// report by the CLI.
[[nodiscard]] LintReport optimizer_lints(const gamma::Program& program,
                                         const gamma::Multiset& initial);

}  // namespace gammaflow::analysis
