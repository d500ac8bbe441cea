// Analyses: parallelism profiles, match-opportunity counts (the §III-A3
// granularity argument, quantified), and the paper figures' inventories.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "gammaflow/analysis/analysis.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/reduce.hpp"

namespace gammaflow::analysis {
namespace {

TEST(Profile, Fig1ExposesWidthTwo) {
  const auto p = parallelism_profile(paper::fig1_graph());
  EXPECT_EQ(p.depth, 3u);        // (R1,R2) ; R3 ; output
  EXPECT_EQ(p.max_width, 2u);
  EXPECT_EQ(p.total_fires, 4u);  // root seeding is not a wavefront
  EXPECT_GT(p.ideal_speedup, 1.0);
}

TEST(Profile, WideExpressionScalesWidth) {
  const auto narrow = parallelism_profile(paper::random_expression_graph(4, 1));
  const auto wide = parallelism_profile(paper::random_expression_graph(64, 1));
  EXPECT_GT(wide.max_width, narrow.max_width);
  EXPECT_GT(wide.ideal_speedup, narrow.ideal_speedup);
}

TEST(Profile, MultiLoopWidthGrowsWithLoops) {
  const auto one = parallelism_profile(paper::multi_loop_graph(1, 6, true));
  const auto four = parallelism_profile(paper::multi_loop_graph(4, 6, true));
  EXPECT_GE(four.max_width, 3 * one.max_width);
  // Depth stays the same: loops run concurrently, not back to back.
  EXPECT_LE(four.depth, one.depth + 2);
}

TEST(Profile, SummaryArithmetic) {
  const auto p = summarize_wavefronts({4, 2, 1, 1});
  EXPECT_EQ(p.depth, 4u);
  EXPECT_EQ(p.max_width, 4u);
  EXPECT_EQ(p.total_fires, 8u);
  EXPECT_DOUBLE_EQ(p.avg_width, 2.0);
}

gamma::Multiset wide_fig1_multiset(int instances) {
  gamma::Multiset wide;
  for (int i = 0; i < instances; ++i) {
    for (const auto& [v, l] :
         {std::pair{i * 10 + 1, "A1"}, {i * 10 + 5, "B1"},
          {i * 10 + 3, "C1"}, {i * 10 + 2, "D1"}}) {
      wide.add(gamma::Element::labeled(Value(std::int64_t{v}), l));
    }
  }
  return wide;
}

TEST(MatchOps, RawTupleCountsPerReaction) {
  const gamma::Multiset wide = wide_fig1_multiset(4);
  const auto fine = match_opportunities(paper::fig1_gamma(), wide);
  const auto coarse = match_opportunities(paper::fig1_reduced_gamma(), wide);
  EXPECT_EQ(fine.per_reaction.at("R1"), 16u);   // 4 A1 x 4 B1
  EXPECT_EQ(fine.per_reaction.at("R3"), 0u);    // no B2/C2 yet
  EXPECT_EQ(coarse.per_reaction.at("Rd1"), 256u);  // 4^4 assemblies
}

TEST(MatchOps, ReductionShrinksConcurrentFirings) {
  // The §III-A3 claim, quantified: on k independent input sets, the
  // fine-grained program fires 2k reactions concurrently (R1+R2 per set),
  // the fused program only k.
  const gamma::Multiset wide = wide_fig1_multiset(4);
  EXPECT_EQ(concurrent_firings(paper::fig1_gamma(), wide), 8u);
  EXPECT_EQ(concurrent_firings(paper::fig1_reduced_gamma(), wide), 4u);
}

/// concurrent_firings as a loop of finds on a fresh MatchSite each: no
/// memo, and the literals pinned anew.
std::size_t fresh_find_firings(const gamma::Program& program,
                               const gamma::Multiset& m, std::uint64_t seed) {
  gamma::Store store(m, gamma::FieldSet::of(program));
  Rng rng(seed);
  std::size_t fired = 0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const gamma::Reaction* r : program.all_reactions()) {
      for (;;) {
        runtime::MatchSite fresh;
        if (!runtime::MatchPipeline::find(store, *r, &rng, fresh)) break;
        for (const auto id : fresh.match().ids) store.remove(id);
        ++fired;
        progressed = true;
      }
    }
  }
  return fired;
}

TEST(MatchOps, ConcurrentFiringsMatchAFreshFindPerAttempt) {
  // The per-reaction site's memo and pins change neither the rng stream
  // nor the match found, so the count is the one fresh finds reach: on the
  // fig1 programs above, and on a guarded join whose greedy set depends on
  // the seed.
  gamma::Multiset ints;
  for (std::int64_t v = 1; v <= 24; ++v) ints.add(gamma::Element{Value(v)});
  const gamma::Program near = gamma::dsl::parse_program(
      "R = replace x, y by x where x + 1 == y or x + 3 == y");
  const gamma::Multiset wide = wide_fig1_multiset(4);
  std::set<std::size_t> near_counts;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    EXPECT_EQ(concurrent_firings(paper::fig1_gamma(), wide, seed),
              fresh_find_firings(paper::fig1_gamma(), wide, seed));
    EXPECT_EQ(concurrent_firings(paper::fig1_reduced_gamma(), wide, seed),
              fresh_find_firings(paper::fig1_reduced_gamma(), wide, seed));
    const std::size_t n = concurrent_firings(near, ints, seed);
    EXPECT_EQ(n, fresh_find_firings(near, ints, seed)) << "seed " << seed;
    near_counts.insert(n);
  }
  EXPECT_GT(near_counts.size(), 1u);  // the seeds reach different sets
}

TEST(MatchOps, ReductionShrinksMatchProbability) {
  // "The chance of the reaction condition occurring can decrease": a random
  // ordered tuple enables Rd1 far less often than it enables R1.
  const gamma::Multiset wide = wide_fig1_multiset(4);
  const gamma::Program fine = paper::fig1_gamma();
  const gamma::Program coarse = paper::fig1_reduced_gamma();
  const auto* r1 = fine.find("R1");
  const auto* rd1 = coarse.find("Rd1");
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(rd1, nullptr);
  const double p_fine = match_probability(*r1, wide);
  const double p_coarse = match_probability(*rd1, wide);
  EXPECT_GT(p_fine, 0.0);
  EXPECT_GT(p_coarse, 0.0);
  EXPECT_GT(p_fine, 10 * p_coarse);
}

TEST(MatchOps, SingleInstanceCounts) {
  const auto ops =
      match_opportunities(paper::fig1_gamma(), paper::fig1_initial());
  // Only R1 and R2 are enabled initially, one match each.
  EXPECT_EQ(ops.per_reaction.at("R1"), 1u);
  EXPECT_EQ(ops.per_reaction.at("R2"), 1u);
  EXPECT_EQ(ops.per_reaction.at("R3"), 0u);
  EXPECT_EQ(ops.total, 2u);
  EXPECT_FALSE(ops.capped);
}

TEST(MatchOps, CapIsReported) {
  gamma::Multiset big;
  for (int i = 0; i < 40; ++i) big.add(gamma::Element{Value(i)});
  const auto p = gamma::dsl::parse_program("R = replace x, y by x where x < y");
  const auto ops = match_opportunities(p, big, 100);
  EXPECT_TRUE(ops.capped);
  EXPECT_EQ(ops.per_reaction.at("R"), 100u);
}

// The paper's Fig. 2 inventory, counted from the structures themselves.
TEST(GraphStats, Fig2Inventory) {
  const dataflow::Graph g = paper::fig2_graph(3, 5, 0, true);
  std::map<dataflow::NodeKind, std::size_t> by_kind;
  for (const dataflow::Node& n : g.nodes()) ++by_kind[n.kind];
  EXPECT_EQ(g.node_count(), 13u);
  EXPECT_EQ(by_kind[dataflow::NodeKind::Const], 3u);
  EXPECT_EQ(by_kind[dataflow::NodeKind::Output], 1u);
  EXPECT_EQ(by_kind[dataflow::NodeKind::Steer], 3u);
  EXPECT_EQ(by_kind[dataflow::NodeKind::IncTag], 3u);
  EXPECT_EQ(by_kind[dataflow::NodeKind::Cmp], 1u);
  EXPECT_EQ(by_kind[dataflow::NodeKind::Arith], 2u);
  EXPECT_EQ(g.edge_count(), 17u);
}

TEST(ProgramStats, Fig2Listing) {
  const gamma::Program p = paper::fig2_gamma();
  std::size_t arity_sum = 0;
  std::size_t max_arity = 0;
  std::size_t conditional = 0;  // at least one guarded branch
  for (const gamma::Reaction* r : p.all_reactions()) {
    arity_sum += r->arity();
    max_arity = std::max(max_arity, r->arity());
    const auto& branches = r->branches();
    if (std::any_of(branches.begin(), branches.end(),
                    [](const gamma::Branch& b) { return b.condition; })) {
      ++conditional;
    }
  }
  EXPECT_EQ(p.reaction_count(), 9u);
  EXPECT_EQ(p.stage_count(), 1u);
  EXPECT_EQ(max_arity, 2u);
  EXPECT_GT(conditional, 5u);
  EXPECT_EQ(arity_sum, 13u);
}

TEST(ProgramStats, EmptyProgram) {
  const gamma::Program p;
  EXPECT_EQ(p.reaction_count(), 0u);
  EXPECT_TRUE(p.all_reactions().empty());
}

}  // namespace
}  // namespace gammaflow::analysis
