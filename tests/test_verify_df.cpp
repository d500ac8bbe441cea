// Dataflow-graph verifier: the clean corpus (paper figures, generators, and
// every translator output — the translation-validation regressions) plus one
// deliberately broken graph per check id. Every broken graph here is
// structurally valid, so GraphBuilder::build() accepts it; structural
// defects are build()'s to refuse (test_dataflow_graph.cpp, GraphValidate).
#include <gtest/gtest.h>

#include "gammaflow/analysis/verify_df.hpp"
#include "gammaflow/dataflow/graph.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/gamma_to_df.hpp"

namespace gammaflow::analysis {
namespace {

using dataflow::GraphBuilder;
using expr::BinOp;

// --- clean corpus --------------------------------------------------------

TEST(VerifyDf, Fig1IsClean) {
  const auto report = verify_graph(paper::fig1_graph());
  EXPECT_EQ(report.errors(), 0u) << report;
  EXPECT_EQ(report.warnings(), 0u) << report;
}

TEST(VerifyDf, Fig2IsCleanWithAndWithoutObserver) {
  for (const bool observe : {false, true}) {
    const auto report = verify_graph(paper::fig2_graph(3, 5, 0, observe));
    EXPECT_EQ(report.errors(), 0u) << report;
    EXPECT_EQ(report.warnings(), 0u) << report;
    // The unused steer FALSE ports are surfaced, not flagged as defects.
    EXPECT_FALSE(report.of("df-discarded-port").empty());
  }
}

TEST(VerifyDf, GeneratorGraphsAreClean) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto report = verify_graph(paper::random_expression_graph(9, seed));
    EXPECT_EQ(report.errors(), 0u) << "seed " << seed << "\n" << report;
    EXPECT_EQ(report.warnings(), 0u) << "seed " << seed << "\n" << report;
  }
  const auto loops = verify_graph(paper::multi_loop_graph(3, 4));
  EXPECT_EQ(loops.errors(), 0u) << loops;
  EXPECT_EQ(loops.warnings(), 0u) << loops;
}

TEST(VerifyDf, CompiledSourceProgramsAreClean) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto graph =
        frontend::compile_source(paper::random_source_program(seed));
    const auto report = verify_graph(graph);
    EXPECT_EQ(report.errors(), 0u) << "seed " << seed << "\n" << report;
  }
}

// Translation validation, Algorithm 2 direction: reconstructed graphs of the
// paper programs must verify with zero errors.
TEST(VerifyDf, ReconstructedPaperProgramsVerify) {
  const auto fig1 = verify_graph(translate::reconstruct_graph(
      paper::fig1_gamma(), paper::fig1_initial()));
  EXPECT_EQ(fig1.errors(), 0u) << fig1;
  const auto fig2 = verify_graph(translate::reconstruct_graph(
      paper::fig2_gamma(), paper::fig2_initial(3, 5, 100)));
  EXPECT_EQ(fig2.errors(), 0u) << fig2;
  const auto reduced = verify_graph(translate::reconstruct_graph(
      paper::fig1_reduced_gamma(), paper::fig1_initial()));
  EXPECT_EQ(reduced.errors(), 0u) << reduced;
}

// Translation validation, round trip: Algorithm 1 output converted back to a
// graph still verifies.
TEST(VerifyDf, RoundTrippedGraphsVerify) {
  const auto conv = translate::dataflow_to_gamma(paper::fig1_graph());
  const auto report =
      verify_graph(translate::reconstruct_graph(conv.program, conv.initial));
  EXPECT_EQ(report.errors(), 0u) << report;
}

TEST(VerifyDf, PerReactionGraphsVerify) {
  const auto p = gamma::dsl::parse_program(
      "R = replace [x,'a'], [y,'b'] by [x + y,'s'] if x < y");
  const auto rg = translate::per_reaction_graph(*p.all_reactions()[0]);
  const auto report = verify_graph(rg.graph);
  EXPECT_EQ(report.errors(), 0u) << report;
}

// --- broken graphs, one per check ----------------------------------------

TEST(VerifyDf, UntaggedCycleIsAnError) {
  GraphBuilder b;
  const auto c = b.constant(Value(1));
  const auto a = b.arith(BinOp::Add, "a");
  const auto dbl = b.arith_imm(BinOp::Mul, Value(2), "dbl");
  b.connect(c, a, 0);
  b.connect(GraphBuilder::out(dbl), a, 1);
  b.connect(GraphBuilder::out(a), dbl, 0);  // a -> dbl -> a, no IncTag
  const auto report = verify_graph(std::move(b).build());
  const auto cyc = report.of("df-untagged-cycle");
  ASSERT_EQ(cyc.size(), 1u) << report;
  EXPECT_EQ(cyc[0].severity, Severity::Error);
}

TEST(VerifyDf, TaggedCycleIsAccepted) {
  GraphBuilder b;
  const auto c = b.constant(Value(1));
  const auto a = b.arith(BinOp::Add, "a");
  const auto dbl = b.arith_imm(BinOp::Mul, Value(2), "dbl");
  const auto inc = b.inctag();
  b.connect(c, a, 0);
  b.connect(GraphBuilder::out(inc), a, 1);
  b.connect(GraphBuilder::out(a), dbl, 0);
  b.connect(GraphBuilder::out(dbl), inc, 0);
  const auto report = verify_graph(std::move(b).build());
  EXPECT_EQ(report.errors(), 0u) << report;
  EXPECT_TRUE(report.of("df-untagged-cycle").empty()) << report;
}

TEST(VerifyDf, SteerControlFedByNonTruthyConstIsAnError) {
  GraphBuilder b;
  const auto data = b.constant(Value(7));
  const auto ctrl = b.constant(Value("not a bool"));
  b.steer(data, ctrl, "st");
  const auto report = verify_graph(std::move(b).build());
  const auto sc = report.of("df-steer-control");
  ASSERT_EQ(sc.size(), 1u) << report;
  EXPECT_EQ(sc[0].severity, Severity::Error);
  EXPECT_EQ(sc[0].reaction, "st");
}

TEST(VerifyDf, SteerControlFedByArithIsAWarning) {
  GraphBuilder b;
  const auto data = b.constant(Value(7));
  const auto sum =
      b.arith(BinOp::Add, b.constant(Value(1)), b.constant(Value(2)));
  b.steer(data, sum, "st");
  const auto report = verify_graph(std::move(b).build());
  const auto sc = report.of("df-steer-control");
  ASSERT_EQ(sc.size(), 1u) << report;
  EXPECT_EQ(sc[0].severity, Severity::Warning);
}

TEST(VerifyDf, SteerControlFedByCmpIsClean) {
  GraphBuilder b;
  const auto data = b.constant(Value(7));
  const auto cond =
      b.cmp(BinOp::Lt, b.constant(Value(1)), b.constant(Value(2)));
  b.steer(data, cond, "st");
  const auto report = verify_graph(std::move(b).build());
  EXPECT_TRUE(report.of("df-steer-control").empty()) << report;
}

TEST(VerifyDf, DisjointTagOffsetsAtAJoinAreAWarning) {
  GraphBuilder b;
  const auto c1 = b.constant(Value(1));
  const auto c2 = b.constant(Value(2));
  const auto tagged = b.inctag(c1);  // offset {1}
  const auto join = b.arith(BinOp::Add, "join");
  b.connect(tagged, join, 0);
  b.connect(c2, join, 1);  // offset {0}: provably never matches port 0
  const auto report = verify_graph(std::move(b).build());
  const auto tm = report.of("df-tag-mismatch");
  ASSERT_EQ(tm.size(), 1u) << report;
  EXPECT_EQ(tm[0].severity, Severity::Warning);
  EXPECT_EQ(tm[0].reaction, "join");
}

TEST(VerifyDf, UnreachableComponentIsAWarning) {
  GraphBuilder b;
  b.constant(Value(1), "root");
  // A tagged two-node cycle with no Const ancestor: structurally fine (all
  // ports fed), but no token ever enters it.
  const auto orphan = b.arith_imm(BinOp::Add, Value(1), "orphan");
  const auto inc = b.inctag();
  b.connect(GraphBuilder::out(orphan), inc, 0);
  b.connect(GraphBuilder::out(inc), orphan, 0);
  const auto report = verify_graph(std::move(b).build());
  EXPECT_EQ(report.errors(), 0u) << report;
  const auto unreachable = report.of("df-unreachable");
  ASSERT_EQ(unreachable.size(), 2u) << report;
  EXPECT_EQ(unreachable[0].severity, Severity::Warning);
}

TEST(VerifyDf, NodeFeedingNoOutputIsAWarning) {
  GraphBuilder b;
  const auto c1 = b.constant(Value(1));
  const auto wasted = b.arith_imm(BinOp::Add, c1, Value(1), "wasted");
  (void)wasted;
  b.output(b.constant(Value(2), "kept"), "m");
  const auto report = verify_graph(std::move(b).build());
  const auto dead = report.of("df-dead-node");
  // The const feeding 'wasted' and 'wasted' itself lead nowhere.
  ASSERT_EQ(dead.size(), 2u) << report;
  EXPECT_EQ(dead[0].severity, Severity::Warning);
}

TEST(VerifyDf, NoOutputNodesSkipsDeadNodeAnalysis) {
  GraphBuilder b;
  b.arith_imm(BinOp::Add, b.constant(Value(1)), Value(1), "sink");
  const auto report = verify_graph(std::move(b).build());
  EXPECT_TRUE(report.of("df-dead-node").empty()) << report;
}

TEST(VerifyDf, JoinStarvedByATagMismatchedProducerIsADeadlock) {
  GraphBuilder b;
  // `mismatch` provably never fires (disjoint tag offsets), so downstream
  // `starved` sees one live port and one dead port.
  const auto c1 = b.constant(Value(1));
  const auto c2 = b.constant(Value(2));
  const auto c3 = b.constant(Value(3));
  const auto mismatch = b.arith(BinOp::Add, "mismatch");
  b.connect(b.inctag(c1), mismatch, 0);
  b.connect(c2, mismatch, 1);
  const auto starved = b.arith(BinOp::Add, "starved");
  b.connect(GraphBuilder::out(mismatch), starved, 0);
  b.connect(c3, starved, 1);
  const auto report = verify_graph(std::move(b).build());
  const auto deadlock = report.of("df-deadlock");
  ASSERT_EQ(deadlock.size(), 1u) << report;
  EXPECT_EQ(deadlock[0].severity, Severity::Error);
  EXPECT_EQ(deadlock[0].reaction, "starved");
}

TEST(VerifyDf, UnequalTokenCountsAreAnInfo) {
  GraphBuilder b;
  // Port 0 receives two tokens (two producers fan IN), port 1 one.
  const auto c1 = b.constant(Value(1));
  const auto c2 = b.constant(Value(2));
  const auto c3 = b.constant(Value(3));
  const auto join = b.arith(BinOp::Add, "join");
  b.connect(c1, join, 0);
  b.connect(c2, join, 0);
  b.connect(c3, join, 1);
  const auto report = verify_graph(std::move(b).build());
  const auto imbalance = report.of("df-token-imbalance");
  ASSERT_EQ(imbalance.size(), 1u) << report;
  EXPECT_EQ(imbalance[0].severity, Severity::Info);
  EXPECT_EQ(imbalance[0].reaction, "join");
}

TEST(VerifyDf, DiscardedOutputPortIsAnInfo) {
  GraphBuilder b;
  const auto data = b.constant(Value(7));
  const auto cond =
      b.cmp(BinOp::Lt, b.constant(Value(1)), b.constant(Value(2)));
  const auto st = b.steer(data, cond, "st");
  b.output(GraphBuilder::true_out(st), "m");  // FALSE port discarded
  const auto report = verify_graph(std::move(b).build());
  EXPECT_EQ(report.errors(), 0u) << report;
  const auto discarded = report.of("df-discarded-port");
  ASSERT_EQ(discarded.size(), 1u) << report;
  EXPECT_EQ(discarded[0].severity, Severity::Info);
  EXPECT_EQ(discarded[0].reaction, "st");
}

TEST(VerifyDf, FindingsNameUnnamedNodesById) {
  GraphBuilder b;
  const auto data = b.constant(Value(7));
  const auto ctrl = b.constant(Value("not a bool"));
  b.steer(data, ctrl);  // unnamed: node #2
  const auto report = verify_graph(std::move(b).build());
  const auto sc = report.of("df-steer-control");
  ASSERT_EQ(sc.size(), 1u) << report;
  EXPECT_EQ(sc[0].reaction, "#2");
}

}  // namespace
}  // namespace gammaflow::analysis
