// Analyses the paper motivates as cross-model benefits: parallelism profiles
// of dataflow graphs and match-opportunity counting for Gamma programs (the
// quantity §III-A3's reduction argument is about).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/graph.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"

namespace gammaflow::analysis {

/// Exposed parallelism of one execution: the wavefront widths the
/// interpreter observed, summarized.
struct ParallelismProfile {
  std::vector<std::size_t> wavefronts;
  std::size_t depth = 0;        // number of wavefronts (critical path length)
  std::size_t max_width = 0;    // widest wavefront
  double avg_width = 0.0;       // fires / depth
  std::uint64_t total_fires = 0;
  /// Ideal speedup on unbounded PEs: total_fires / depth.
  double ideal_speedup = 0.0;
};

/// Runs `graph` on the interpreter and summarizes its wavefronts.
[[nodiscard]] ParallelismProfile parallelism_profile(
    const dataflow::Graph& graph);
[[nodiscard]] ParallelismProfile summarize_wavefronts(
    const std::vector<std::size_t>& wavefronts);

/// Counts enabled matches per reaction on `m` (capped). This is the paper's
/// "opportunity to explore the parallelism of reactions": how many distinct
/// reaction applications are simultaneously available.
struct MatchOpportunities {
  std::map<std::string, std::size_t> per_reaction;
  std::size_t total = 0;
  bool capped = false;
};
[[nodiscard]] MatchOpportunities match_opportunities(
    const gamma::Program& program, const gamma::Multiset& m,
    std::size_t cap_per_reaction = 100000);

/// Maximum number of reactions that can fire CONCURRENTLY on `m` (greedy
/// maximal set of element-disjoint enabled matches). This is the
/// parallelism §III-A3's reduction argument trades away: fusing R1,R2,R3
/// into Rd1 shrinks one wide multiset's concurrent firings from 2k to k.
[[nodiscard]] std::size_t concurrent_firings(const gamma::Program& program,
                                             const gamma::Multiset& m,
                                             std::uint64_t seed = 1);

/// Probability that a uniformly random ordered k-tuple of distinct elements
/// enables `reaction` — the paper's "the chance of the reaction condition
/// occurring can decrease" under reduction. Exact when the enabled-match
/// enumeration is not capped.
[[nodiscard]] double match_probability(const gamma::Reaction& reaction,
                                       const gamma::Multiset& m,
                                       std::size_t cap = 1000000);

}  // namespace gammaflow::analysis
