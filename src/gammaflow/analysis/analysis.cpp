#include "gammaflow/analysis/analysis.hpp"

#include <algorithm>
#include <numeric>

#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

namespace gammaflow::analysis {

ParallelismProfile summarize_wavefronts(
    const std::vector<std::size_t>& wavefronts) {
  ParallelismProfile p;
  p.wavefronts = wavefronts;
  p.depth = wavefronts.size();
  for (const std::size_t w : wavefronts) {
    p.max_width = std::max(p.max_width, w);
    p.total_fires += w;
  }
  if (p.depth > 0) {
    p.avg_width = static_cast<double>(p.total_fires) /
                  static_cast<double>(p.depth);
    p.ideal_speedup = p.avg_width;
  }
  return p;
}

ParallelismProfile parallelism_profile(const dataflow::Graph& graph) {
  const dataflow::Interpreter interp;
  const dataflow::DfRunResult result = interp.run(graph);
  return summarize_wavefronts(result.wavefronts);
}

MatchOpportunities match_opportunities(const gamma::Program& program,
                                       const gamma::Multiset& m,
                                       std::size_t cap_per_reaction) {
  MatchOpportunities out;
  gamma::Store store(m, gamma::FieldSet::of(program));
  for (const gamma::Reaction* r : program.all_reactions()) {
    const std::size_t n = runtime::MatchPipeline::enumerate(
        store, *r, cap_per_reaction, [](const gamma::Match&) { return true; });
    out.per_reaction[r->name()] = n;
    out.total += n;
    if (n >= cap_per_reaction) out.capped = true;
  }
  return out;
}

std::size_t concurrent_firings(const gamma::Program& program,
                               const gamma::Multiset& m, std::uint64_t seed) {
  gamma::Store store(m, gamma::FieldSet::of(program));
  Rng rng(seed);
  const std::vector<const gamma::Reaction*> reactions = program.all_reactions();
  // One site per reaction: its memo skips the anchors a previous find
  // already ruled out, and its literals are pinned once.
  std::vector<runtime::MatchSite> sites(reactions.size());
  std::size_t fired = 0;
  bool progressed = true;
  // Greedy maximal set: claim a match, delete its elements WITHOUT inserting
  // products (all firings of the set happen "at the same instant").
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < reactions.size(); ++i) {
      while (runtime::MatchPipeline::find(store, *reactions[i], &rng,
                                          sites[i])) {
        for (const auto id : sites[i].match().ids) store.remove(id);
        ++fired;
        progressed = true;
      }
    }
  }
  return fired;
}

double match_probability(const gamma::Reaction& reaction,
                         const gamma::Multiset& m, std::size_t cap) {
  const std::size_t n = m.size();
  const std::size_t k = reaction.arity();
  if (n < k) return 0.0;
  double tuples = 1.0;
  for (std::size_t i = 0; i < k; ++i) tuples *= static_cast<double>(n - i);
  gamma::Store store(m, gamma::FieldSet::of(reaction));
  const std::size_t enabled = runtime::MatchPipeline::enumerate(
      store, reaction, cap, [](const gamma::Match&) { return true; });
  return static_cast<double>(enabled) / tuples;
}

}  // namespace gammaflow::analysis
