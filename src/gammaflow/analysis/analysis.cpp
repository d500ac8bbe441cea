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
  std::size_t fired = 0;
  bool progressed = true;
  // Greedy maximal set: claim a match, delete its elements WITHOUT inserting
  // products (all firings of the set happen "at the same instant").
  while (progressed) {
    progressed = false;
    for (const gamma::Reaction* r : program.all_reactions()) {
      while (auto match = runtime::MatchPipeline::find(store, *r, &rng)) {
        for (const auto id : match->ids) store.remove(id);
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

GraphStats graph_stats(const dataflow::Graph& graph) {
  GraphStats s;
  s.node_count = graph.node_count();
  s.edge_count = graph.edge_count();
  for (const dataflow::Node& n : graph.nodes()) {
    ++s.nodes_by_kind[dataflow::to_string(n.kind)];
    if (n.kind == dataflow::NodeKind::Const) ++s.root_count;
    if (n.kind == dataflow::NodeKind::Output) ++s.output_count;
  }
  return s;
}

ProgramStats program_stats(const gamma::Program& program) {
  ProgramStats s;
  s.stage_count = program.stage_count();
  std::size_t arity_sum = 0;
  for (const gamma::Reaction* r : program.all_reactions()) {
    ++s.reaction_count;
    arity_sum += r->arity();
    s.max_arity = std::max(s.max_arity, r->arity());
    for (const gamma::Branch& br : r->branches()) {
      if (br.condition) ++s.conditional_reactions;
      s.total_output_tuples += br.outputs.size();
      if (br.condition) break;  // count the reaction once
    }
  }
  if (s.reaction_count > 0) {
    s.avg_arity = static_cast<double>(arity_sum) /
                  static_cast<double>(s.reaction_count);
  }
  return s;
}

}  // namespace gammaflow::analysis
