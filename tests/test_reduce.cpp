// §III-A3 reductions: fusion to coarser reactions (the optimizer's planner
// with the cost gate and dead-reaction elimination off), expansion back to
// binary reactions, and semantic preservation of both.
#include <gtest/gtest.h>

#include <set>

#include "gammaflow/analysis/optimize.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/reduce.hpp"

namespace gammaflow::translate {
namespace {

using gamma::Element;
using gamma::IndexedEngine;
using gamma::Multiset;
using gamma::Program;

/// The §III-A3 reduction as `gammaflow fuse` runs it.
Program fuse(const Program& program, const Multiset& initial,
             std::vector<std::string> preserve_labels = {}) {
  analysis::OptimizeOptions opts = analysis::reduction_options();
  opts.preserve_labels = std::move(preserve_labels);
  return analysis::optimize_program(program, initial, opts).program;
}

TEST(Fuse, Fig1CollapsesToOneReaction) {
  // R1,R2,R3 -> the paper's Rd1 shape: one 4-ary reaction producing m.
  const Program fused =
      fuse(paper::fig1_gamma(), paper::fig1_initial());
  EXPECT_EQ(fused.reaction_count(), 1u);
  const auto* rd = fused.all_reactions()[0];
  EXPECT_EQ(rd->arity(), 4u);
  ASSERT_EQ(rd->branches().size(), 1u);
  EXPECT_EQ(rd->branches()[0].outputs.size(), 1u);
  EXPECT_EQ(rd->branches()[0].outputs[0][1]->literal(), Value("m"));
}

TEST(Fuse, Fig1FusedPreservesResult) {
  const Program fused =
      fuse(paper::fig1_gamma(), paper::fig1_initial());
  const auto r = IndexedEngine().run(fused, paper::fig1_initial());
  EXPECT_EQ(r.final_multiset, (Multiset{Element::labeled(Value(0), "m")}));
}

TEST(Fuse, FusedEqualsPaperRd1Behaviour) {
  const Program fused =
      fuse(paper::fig1_gamma(), paper::fig1_initial());
  const IndexedEngine eng;
  for (std::int64_t x : {1, -3, 10}) {
    const Multiset init = paper::fig1_initial(x, 5, 3, 2);
    EXPECT_EQ(eng.run(fused, init).final_multiset,
              eng.run(paper::fig1_reduced_gamma(), init).final_multiset);
  }
}

TEST(Fuse, PreserveLabelsBlocksFusion) {
  // Keep R1's intermediate B2 visible.
  const Program fused =
      fuse(paper::fig1_gamma(), paper::fig1_initial(), {"B2"});
  EXPECT_EQ(fused.reaction_count(), 2u);  // only R2 fused into R3
  EXPECT_NE(fused.find("R1"), nullptr);
}

TEST(Fuse, InitialLabelsNeverFused) {
  // A1..D1 appear in the initial multiset: they are roots, not intermediates.
  const Program fused =
      fuse(paper::fig1_gamma(), paper::fig1_initial());
  const auto* rd = fused.all_reactions()[0];
  std::set<std::string> labels;
  for (const auto& p : rd->patterns()) {
    labels.insert(p.fields()[1].value().as_str());
  }
  EXPECT_EQ(labels, (std::set<std::string>{"A1", "B1", "C1", "D1"}));
}

TEST(Fuse, ConditionalConsumersStillFuseProducers) {
  // Producer feeds a conditional consumer: substitution into the condition.
  const Program p = gamma::dsl::parse_program(R"(
    P = replace [a,'x'], [b,'y'] by [a + b, 't']
    C = replace [t,'t'] by [t, 'big'] if t > 10 by [t, 'small'] else
  )");
  const Multiset init{Element::labeled(Value(7), "x"),
                      Element::labeled(Value(8), "y")};
  const Program fused = fuse(p, init);
  EXPECT_EQ(fused.reaction_count(), 1u);
  const auto r = IndexedEngine().run(fused, init);
  EXPECT_EQ(r.final_multiset, (Multiset{Element::labeled(Value(15), "big")}));
}

TEST(Fuse, SharedLabelNotFused) {
  // Two consumers of 't' => not a private intermediate.
  const Program p = gamma::dsl::parse_program(R"(
    P = replace [a,'x'] by [a + 1, 't']
    C1 = replace [t,'t'], [b,'y'] by [t + b, 'o1']
    C2 = replace [t,'t'], [c,'z'] by [t * c, 'o2']
  )");
  const Program fused = fuse(p, Multiset{});
  EXPECT_EQ(fused.reaction_count(), 3u);
}

TEST(Fuse, TaggedProgramsFuseTagPreservingChains) {
  const Program p = gamma::dsl::parse_program(R"(
    P = replace [a,'x',v] by [a * 2, 't', v]
    C = replace [t,'t',w], [b,'y',w] by [t + b, 'o', w]
  )");
  const Multiset init{Element::tagged(Value(5), "x", 3),
                      Element::tagged(Value(1), "y", 3)};
  const Program fused = fuse(p, init);
  EXPECT_EQ(fused.reaction_count(), 1u);
  const auto r = IndexedEngine().run(fused, init);
  EXPECT_EQ(r.final_multiset, (Multiset{Element::tagged(Value(11), "o", 3)}));
}

TEST(Fuse, TagChangingProducerNotFused) {
  // Inctag-style producers must not be inlined: the consumed element lives
  // in a different iteration.
  const Program p = gamma::dsl::parse_program(R"(
    P = replace [a,'x',v] by [a, 't', v + 1]
    C = replace [t,'t',w] by [t + 1, 'o', w]
  )");
  const Program fused = fuse(p, Multiset{});
  EXPECT_EQ(fused.reaction_count(), 2u);
}

TEST(Fuse, Fig2LoopProgramKeepsControlReactions) {
  // Steers/inctags are not fusable; only pure arithmetic chains are. The
  // nine-reaction loop program must keep its control structure.
  const Program fused =
      fuse(paper::fig2_gamma(), paper::fig2_initial(3, 5, 100));
  EXPECT_GE(fused.reaction_count(), 8u);
  const IndexedEngine eng;
  EXPECT_EQ(eng.run(fused, paper::fig2_initial(3, 5, 100)).final_multiset,
            eng.run(paper::fig2_gamma(), paper::fig2_initial(3, 5, 100))
                .final_multiset);
}

TEST(Fuse, DeepChainsAvoidVariableCapture) {
  // Regression: repeated fusion generates id1_1-style names; a later rename
  // must not collide with one already chosen (random 8..16-leaf expression
  // graphs reliably triggered this).
  const dataflow::Interpreter interp;
  const gamma::IndexedEngine eng;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const dataflow::Graph g = paper::random_expression_graph(10, seed);
    const Value expected = interp.run(g).single_output("m");
    const auto conv = dataflow_to_gamma(g);
    const Program fused = fuse(conv.program, conv.initial);
    EXPECT_EQ(fused.reaction_count(), 1u) << "seed " << seed;
    const auto run = eng.run(fused, conv.initial);
    const auto m = run.final_multiset.with_label("m");
    ASSERT_EQ(m.size(), 1u) << "seed " << seed;
    EXPECT_EQ(m[0].value(), expected) << "seed " << seed;
  }
}

TEST(Fuse, PartialConsumerKeepsTheFixpoint) {
  // C has no else branch: 'Mid' = 2 fails its guard and parks at the
  // fixpoint. Inlining P into C would leave [1,'A'] there instead (S6).
  const Program p = gamma::dsl::parse_program(R"(
    P = replace [x,'A'] by [x + 1,'Mid']
    C = replace [v,'Mid'] by [v * 2,'Out'] if v > 10
  )");
  const Multiset init{Element::labeled(Value(1), "A")};
  const IndexedEngine eng;
  const Multiset expected{Element::labeled(Value(2), "Mid")};
  EXPECT_EQ(eng.run(p, init).final_multiset, expected);
  EXPECT_EQ(eng.run(fuse(p, init), init).final_multiset, expected);
}

TEST(Fuse, LabelBoundConsumerKeepsEveryFixpoint) {
  // D consumes 'Mid' through a label binder, so C is not Mid's only
  // consumer (S1). The unfused program reaches {[4,'Out']} or {[2,'Z']}
  // depending on the schedule; fusing P into C would lose the second.
  const Program p = gamma::dsl::parse_program(R"(
    P = replace [x,'A'] by [x + 1,'Mid']
    C = replace [v,'Mid'] by [v * 2,'Out']
    D = replace [v, l] by [v,'Z'] if l == 'Mid'
  )");
  const Multiset init{Element::labeled(Value(1), "A")};
  const Program fused = fuse(p, init);
  const auto fixpoints = [&](const Program& program) {
    std::set<std::string> out;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      gamma::RunOptions opts;
      opts.seed = seed;
      out.insert(gamma::SequentialEngine()
                     .run(program, init, opts)
                     .final_multiset.to_string());
    }
    return out;
  };
  const std::set<std::string> original = fixpoints(p);
  EXPECT_EQ(original.size(), 2u);
  EXPECT_EQ(fixpoints(fused), original);
}

TEST(Fuse, RandomSourceProgramsKeepTheirFixpoint) {
  // Differential: Algorithm 1 over random imperative programs, with and
  // without a trailing loop; the fused program must reach the unfused
  // program's fixpoint whatever the planner fused or refused.
  const IndexedEngine eng;
  std::size_t fused_away = 0;
  for (const bool with_loop : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (with_loop ? " with loop" : " without loop"));
      const auto conv = dataflow_to_gamma(frontend::compile_source(
          paper::random_source_program(seed, with_loop)));
      const Program fused = fuse(conv.program, conv.initial);
      fused_away += conv.program.reaction_count() - fused.reaction_count();
      EXPECT_EQ(eng.run(fused, conv.initial).final_multiset,
                eng.run(conv.program, conv.initial).final_multiset);
    }
  }
  EXPECT_GT(fused_away, 0u);  // not vacuous: translated chains do fuse
}

// ---- expansion (inverse reduction) ----

TEST(Expand, Rd1SplitsIntoBinaryReactions) {
  const auto expanded =
      expand_reaction(*paper::fig1_reduced_gamma().all_reactions()[0]);
  EXPECT_EQ(expanded.size(), 3u);  // +, *, - : exactly the R1,R2,R3 shape
  for (const auto& r : expanded) EXPECT_LE(r.arity(), 2u);
}

TEST(Expand, Rd1ExpandedPreservesResult) {
  const Program expanded = expand_program(paper::fig1_reduced_gamma());
  const IndexedEngine eng;
  for (std::int64_t j : {0, 2, 5}) {
    const Multiset init = paper::fig1_initial(1, 5, 3, j);
    const auto a = eng.run(expanded, init);
    const auto b = eng.run(paper::fig1_reduced_gamma(), init);
    // Compare the observable 'm' element; intermediates differ by design.
    EXPECT_EQ(a.final_multiset.with_label("m"),
              b.final_multiset.with_label("m"));
  }
}

TEST(Expand, BinaryReactionIsUnchanged) {
  const auto r = gamma::dsl::parse_reaction(
      "R = replace [a,'x'], [b,'y'] by [a + b, 's']");
  const auto expanded = expand_reaction(r);
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded[0].to_string(), r.to_string());
}

TEST(Expand, ConditionalReactionIsUnchanged) {
  const auto r = gamma::dsl::parse_reaction(
      "R = replace x, y by x where x < y");
  EXPECT_EQ(expand_reaction(r).size(), 1u);
}

TEST(Expand, LiteralOperandsStayInline) {
  const auto r = gamma::dsl::parse_reaction(
      "R = replace [a,'x'], [b,'y'] by [(a + 1) * (b - 2), 'o']");
  const auto expanded = expand_reaction(r);
  // (a+1) and (b-2) are unary-input reactions; the product joins them.
  EXPECT_EQ(expanded.size(), 3u);
  const Program p{std::vector<gamma::Reaction>(expanded)};
  const Multiset init{Element::labeled(Value(4), "x"),
                      Element::labeled(Value(10), "y")};
  const auto run = IndexedEngine().run(p, init);
  EXPECT_EQ(run.final_multiset.with_label("o"),
            (std::vector<Element>{Element::labeled(Value(40), "o")}));
}

TEST(Expand, SharedVariableNotExpanded) {
  // a appears twice: splitting would race for one element.
  const auto r = gamma::dsl::parse_reaction(
      "R = replace [a,'x'] by [a * a, 'sq']");
  EXPECT_EQ(expand_reaction(r).size(), 1u);
}

TEST(Expand, FuseInvertsExpand) {
  // expand then fuse returns to a single reaction computing the same thing.
  const Program expanded = expand_program(paper::fig1_reduced_gamma());
  EXPECT_EQ(expanded.reaction_count(), 3u);
  const Program refused = fuse(expanded, paper::fig1_initial());
  EXPECT_EQ(refused.reaction_count(), 1u);
  const IndexedEngine eng;
  EXPECT_EQ(
      eng.run(refused, paper::fig1_initial()).final_multiset.with_label("m"),
      eng.run(paper::fig1_reduced_gamma(), paper::fig1_initial())
          .final_multiset.with_label("m"));
}

TEST(Expand, SkipReasonsExplainIneligibleReactions) {
  // Each ineligible shape gets a distinct, human-readable reason instead of
  // a silent pass-through.
  auto reason_for = [](const char* text) {
    const Program p = gamma::dsl::parse_program(text);
    std::vector<ExpandSkip> skips;
    (void)expand_program(p, &skips);
    return skips.size() == 1 ? skips[0].reason : std::string{};
  };
  EXPECT_NE(reason_for("R = replace [x, 'A'] by [x * 2, 'Out'] if x > 0")
                .find("single-unconditional-output"),
            std::string::npos);
  EXPECT_NE(reason_for("R = replace x, y by x + y").find("unlabeled"),
            std::string::npos);
  EXPECT_NE(reason_for("R = replace [x, 'A'], [y, 'B'] by [x + x * y, 'Out']")
                .find("occurs"),
            std::string::npos);
  EXPECT_NE(
      reason_for("R = replace [x, 'A'], [y, 'B'] by [x + y, 'Out']")
          .find("single-operator"),
      std::string::npos);
}

TEST(Expand, SkipListNamesEveryUntouchedReaction) {
  // Fig. 1's program is fully binary already: all three reactions skip, and
  // the program text survives unchanged.
  std::vector<ExpandSkip> skips;
  const Program expanded = expand_program(paper::fig1_gamma(), &skips);
  ASSERT_EQ(skips.size(), 3u);
  EXPECT_EQ(skips[0].reaction, "R1");
  EXPECT_EQ(skips[2].reaction, "R3");
  EXPECT_EQ(expanded.to_string(), paper::fig1_gamma().to_string());
  // Rd1 by contrast expands with no skips.
  skips.clear();
  (void)expand_program(paper::fig1_reduced_gamma(), &skips);
  EXPECT_TRUE(skips.empty());
}

TEST(Expand, CustomLabelGenerator) {
  const auto rd1 = *paper::fig1_reduced_gamma().all_reactions()[0];
  const auto expanded = expand_reaction(
      rd1, [](std::size_t k) { return "tmp" + std::to_string(k); });
  bool found = false;
  for (const auto& r : expanded) {
    if (r.to_string().find("tmp") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace gammaflow::translate
