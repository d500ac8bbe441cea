// Interference & confluence analysis — the static side of the paper's
// §III-A3 trade between match opportunities and per-reaction work, and the
// "type checking at compile time" direction Structured Gamma (§II-B) points
// at. Where lint.hpp finds local defects, this module answers the scheduling
// question the runtimes actually ask: which reactions can PROVABLY never
// disturb each other?
//
// Pipeline:
//   1. Footprint   — per-reaction consume/produce label sets
//                    (gamma/footprint.hpp, shared with the serve wake index),
//                    including labels admitted through branch conditions (the
//                    token-merge disjunctions Algorithm 1 emits) and produced
//                    along else-branches. Over-approximate by construction: a
//                    pattern or output whose label cannot be bounded is a
//                    wildcard that overlaps everything.
//   2. Interference graph — an edge between two reactions when their
//                    footprints can overlap: Compete (both may consume the
//                    same element population) or Feed (one may produce what
//                    the other consumes).
//   3. Conflict classes — connected components of that graph. Reactions in
//                    different classes touch provably disjoint element
//                    populations, so the engines may commit them without
//                    revalidation or lock contention (gamma/parallel_engine),
//                    schedule them class-by-class without global re-passes
//                    (gamma/indexed_engine), and co-locate each class's
//                    labels on one cluster node (distrib/cluster).
//   4. Confluence verdict — all enabled pairs commute => deterministic
//                    result. Statically independent/ordered pairs commute by
//                    construction; competing pairs are probed on REACHABLE
//                    states (sampled from engine traces): a probe that finds
//                    two fixpoints from one state is a divergence PROOF and
//                    is reported as a counterexample pair with its witness.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gammaflow/gamma/footprint.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"

namespace gammaflow::analysis {

/// True when the two reactions can never consume a common element (no
/// consume/consume overlap) — the pair commutes on disjoint matches and a
/// commit of one can never invalidate a match of the other.
[[nodiscard]] bool compete(const gamma::Footprint& a,
                           const gamma::Footprint& b);

/// True when `a` may produce an element `b` consumes (enabling order matters
/// for scheduling, never for the final multiset).
[[nodiscard]] bool feeds(const gamma::Footprint& a,
                         const gamma::Footprint& b);

/// compete + feeds in either direction: the full interference relation the
/// conflict classes are closed under.
[[nodiscard]] bool interferes(const gamma::Footprint& a,
                              const gamma::Footprint& b);

/// Runs `program` from `m` on the IndexedEngine to its fixpoint under a
/// budget of `max_steps` fires. nullopt when the budget ran out first: an
/// inconclusive probe. The commutation probes and the optimizer's
/// verification both run it.
[[nodiscard]] std::optional<gamma::Multiset> probe_fixpoint(
    const gamma::Program& program, const gamma::Multiset& m,
    std::uint64_t seed, std::uint64_t max_steps);

enum class PairStatus {
  Independent,  // no overlap at all: commutes, different classes possible
  Ordered,      // produce->consume only: commutes, same class (scheduling)
  Commutes,     // competes statically; every probed conflict rejoined
  Diverges,     // competes and a reachable counterexample was found
  Unknown,      // competes; probes exhausted their budget without a verdict
};
const char* to_string(PairStatus status) noexcept;

enum class ConfluenceVerdict {
  Confluent,        // every pair Independent/Ordered: deterministic, proven
  LikelyConfluent,  // competing pairs exist but all probes commuted
  NonConfluent,     // at least one divergence witness found
};
const char* to_string(ConfluenceVerdict verdict) noexcept;

/// One analyzed non-independent reaction pair (r1 <= r2, self-pairs
/// included: a reaction competing with itself is how `replace x, y by x - y`
/// loses determinism). Witness fields are filled for Diverges only:
/// `witness` is a reachable multiset, `witness_m1`/`witness_m2` the states
/// after the two conflicting firings, and running the pair program from
/// them (IndexedEngine, `witness_seed`) reaches the distinct fixpoints
/// `fixpoint1` != `fixpoint2` — a re-checkable proof, not a heuristic.
struct PairFinding {
  std::size_t r1 = 0;
  std::size_t r2 = 0;
  PairStatus status = PairStatus::Unknown;
  gamma::Multiset witness;
  gamma::Multiset witness_m1;
  gamma::Multiset witness_m2;
  gamma::Multiset fixpoint1;
  gamma::Multiset fixpoint2;
  std::uint64_t witness_seed = 0;
};

struct InterferenceOptions {
  std::uint64_t seed = 1;
  /// Reachable states sampled (via an instrumented engine run from
  /// `initial`) for commutation probing; 0 disables probing, leaving
  /// competing pairs Unknown.
  std::size_t probe_states = 24;
};

struct InterferenceReport {
  /// Reaction names in program order (all stages).
  std::vector<std::string> reactions;
  std::vector<gamma::Footprint> footprints;
  /// Interference edges (i < j, same stage only — reactions in different
  /// sequential stages are never concurrent).
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  /// The same edges with their kinds broken out: `compete` when the two may
  /// consume a common element population, `feeds_12`/`feeds_21` when one may
  /// produce what the other consumes. Parallel to `edges` (same order); the
  /// optimizer walks feeds_* to enumerate fusable chains, and check --json
  /// serializes them as feed/compete edge lists.
  struct TypedEdge {
    std::size_t r1 = 0;
    std::size_t r2 = 0;
    bool compete = false;
    bool feeds_12 = false;
    bool feeds_21 = false;
  };
  std::vector<TypedEdge> typed_edges;
  /// Conflict class per reaction: connected components of the interference
  /// graph, offset so classes never span stages.
  std::vector<std::size_t> class_of;
  std::size_t class_count = 0;
  ConfluenceVerdict verdict = ConfluenceVerdict::Confluent;
  /// Every non-independent pair with its probe result; Diverges entries are
  /// the confluence counterexamples.
  std::vector<PairFinding> pairs;

  /// Reaction name -> conflict class, the form the optimizer's class check
  /// compares before and after a rewrite.
  [[nodiscard]] std::map<std::string, std::size_t> engine_classes() const;
  /// Label -> conflict class (consumers win over producers), the form
  /// distrib::ClusterOptions::label_affinity consumes.
  [[nodiscard]] std::map<std::string, std::size_t> label_affinity() const;
  [[nodiscard]] bool has_divergence() const noexcept;

  [[nodiscard]] std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const InterferenceReport& report);

/// Machine-readable form (one JSON object) for `gammaflow check --json`.
void write_json(std::ostream& os, const InterferenceReport& report);

/// Analyzes `program` against `initial`. Pure up to the seeded probe runs;
/// the same inputs and options always produce the same report.
[[nodiscard]] InterferenceReport analyze_interference(
    const gamma::Program& program, const gamma::Multiset& initial,
    const InterferenceOptions& options = {});

}  // namespace gammaflow::analysis
