// Optimizer passes: folding, identity bypass, dead-code elimination —
// observable preservation on paper graphs, compiled programs, and random
// expression graphs.
#include <gtest/gtest.h>

#include <cstdint>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/optimize.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/paper/figures.hpp"

namespace gammaflow::dataflow {
namespace {

using expr::BinOp;

TEST(Optimize, Fig1FoldsToSingleConstant) {
  // All of Fig. 1 is constant arithmetic: the whole graph folds to one
  // Const feeding the output.
  const auto r = optimize(paper::fig1_graph());
  EXPECT_EQ(r.graph.node_count(), 2u);
  EXPECT_EQ(r.folded, 3u);
  EXPECT_EQ(Interpreter().run(r.graph).single_output("m"), Value(0));
}

TEST(Optimize, Fig2LoopIsIrreducible) {
  // Loop nodes depend on circulating tokens: nothing folds, nothing dies.
  const Graph g = paper::fig2_graph(4, 5, 100, true);
  const auto r = optimize(g);
  EXPECT_EQ(r.graph.node_count(), g.node_count());
  EXPECT_EQ(r.folded + r.bypassed + r.removed, 0u);
  EXPECT_EQ(Interpreter().run(r.graph).single_output("x_final"), Value(120));
}

TEST(Optimize, ObserverlessFig2IsEntirelyDead) {
  // The paper's literal Fig. 2 discards everything through unconnected
  // FALSE ports — the optimizer proves it by deleting the whole graph.
  const Graph g = paper::fig2_graph(4, 5, 100, false);
  const auto r = optimize(g);
  EXPECT_EQ(r.graph.node_count(), 0u);
  EXPECT_EQ(r.removed, g.node_count());
}

TEST(Optimize, DeadBranchesPruned) {
  GraphBuilder b;
  auto a = b.constant(Value(3), "a");
  auto c = b.constant(Value(4), "c");
  b.output(b.arith(BinOp::Add, a, c), "kept");
  b.arith(BinOp::Mul, a, c);  // result goes nowhere
  const Graph g = std::move(b).build();
  const auto r = optimize(g);
  EXPECT_GE(r.removed, 1u);
  EXPECT_EQ(Interpreter().run(r.graph).single_output("kept"), Value(7));
}

TEST(Optimize, IdentityImmediatesBypassed) {
  GraphBuilder b;
  auto x = b.constant(Value(9), "x");
  auto id1 = b.arith_imm(BinOp::Add, x, Value(std::int64_t{0}));
  auto id2 = b.arith_imm(BinOp::Mul, id1, Value(std::int64_t{1}));
  auto id3 = b.arith_imm(BinOp::Div, id2, Value(std::int64_t{1}));
  auto id4 = b.arith_imm(BinOp::Sub, id3, Value(std::int64_t{0}));
  b.output(id4, "y");
  const auto r = optimize(std::move(b).build());
  EXPECT_EQ(r.bypassed, 4u);
  EXPECT_EQ(r.graph.node_count(), 2u);  // const + output
  EXPECT_EQ(Interpreter().run(r.graph).single_output("y"), Value(9));
}

TEST(Optimize, NonIdentityImmediatesKept) {
  GraphBuilder b;
  auto x = b.constant(Value(9), "x");
  b.output(b.arith_imm(BinOp::Sub, x, Value(std::int64_t{1})), "y");
  const auto r = optimize(std::move(b).build());
  EXPECT_EQ(r.bypassed, 0u);
}

TEST(Optimize, ThrowingFoldsArePreservedForRuntime) {
  GraphBuilder b;
  auto x = b.constant(Value(1), "x");
  auto z = b.constant(Value(0), "z");
  b.output(b.arith(BinOp::Div, x, z), "boom");
  const Graph g = std::move(b).build();
  const auto r = optimize(g);
  EXPECT_EQ(r.folded, 0u);
  EXPECT_EQ(r.graph.node_count(), g.node_count());
  EXPECT_THROW((void)Interpreter().run(r.graph), TypeError);
}

TEST(Optimize, CmpFoldsToIntConstant) {
  GraphBuilder b;
  auto a = b.constant(Value(3), "a");
  b.output(b.cmp_imm(BinOp::Gt, a, Value(std::int64_t{0})), "flag");
  const auto r = optimize(std::move(b).build());
  EXPECT_EQ(r.folded, 1u);
  EXPECT_EQ(Interpreter().run(r.graph).single_output("flag"), Value(1));
}

TEST(Optimize, MergedInputsAreNeverFoldedOrBypassed) {
  // A port with two producers is a runtime merge; folding either away would
  // change semantics.
  GraphBuilder b;
  auto c1 = b.constant(Value(1), "c1");
  auto c2 = b.constant(Value(2), "c2");
  const NodeId inc = b.inctag();
  b.connect(c1, inc, 0, "first");
  b.connect(c2, inc, 0, "second");
  const NodeId relay = b.arith_imm(BinOp::Add, Value(std::int64_t{0}));
  b.connect(GraphBuilder::out(inc), relay, 0);
  // relay has ONE producer (bypassable); give it a merge instead:
  b.connect(c1, relay, 0, "extra");
  const NodeId out = b.output("o");
  b.connect(GraphBuilder::out(relay), out, 0);
  const Graph g = std::move(b).build();
  const auto r = optimize(g);
  EXPECT_EQ(r.bypassed, 0u);
}

TEST(Optimize, CompiledProgramsKeepObservables) {
  const char* sources[] = {
      "int a = 6; int b = 7; m = a * b + 0 * a; output m;",
      "int x = 1; int y = 5; int k = 3; int j = 2;"
      "m = (x + y) - (k * j); output m;",
      "int n = 5; int acc = 0; while (n > 0) { acc = acc + n; n = n - 1; }"
      "output acc;",
  };
  for (const char* src : sources) {
    const Graph g = frontend::compile_source(src);
    const auto before = Interpreter().run(g);
    const auto r = optimize(g);
    const auto after = Interpreter().run(r.graph);
    for (const auto& [name, tokens] : before.outputs) {
      EXPECT_EQ(after.output_values(name), before.output_values(name)) << src;
    }
    EXPECT_LE(r.graph.node_count(), g.node_count());
  }
}

TEST(Optimize, RandomExpressionGraphsFoldCompletely) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = paper::random_expression_graph(12, seed);
    const Value expected = Interpreter().run(g).single_output("m");
    const auto r = optimize(g);
    EXPECT_EQ(r.graph.node_count(), 2u) << seed;  // const + output
    EXPECT_EQ(Interpreter().run(r.graph).single_output("m"), expected) << seed;
  }
}

/// Const 0 feeding `n` nodes of `x + imm` in a line, then output "y".
Graph constant_chain(std::size_t n, std::int64_t imm) {
  GraphBuilder b;
  auto x = b.constant(Value(std::int64_t{0}), "x");
  for (std::size_t i = 0; i < n; ++i) {
    x = b.arith_imm(BinOp::Add, x, Value(imm));
  }
  b.output(x, "y");
  return std::move(b).build();
}

TEST(Optimize, LongChainsFoldCompletely) {
  // One pass reaches the fixed point however long the chain: a `+ 1` chain
  // folds link by link, and a `+ 0` chain forwards its root to the output.
  const auto ones = optimize(constant_chain(1000, 1));
  EXPECT_EQ(ones.graph.node_count(), 2u);  // const + output
  EXPECT_EQ(ones.folded, 1000u);
  EXPECT_EQ(ones.removed, 1000u);  // the root and every folded link but the last
  EXPECT_EQ(Interpreter().run(ones.graph).single_output("y"), Value(1000));
  const auto zeros = optimize(constant_chain(1000, 0));
  EXPECT_EQ(zeros.graph.node_count(), 2u);
  EXPECT_EQ(zeros.bypassed, 1000u);
  EXPECT_EQ(zeros.folded + zeros.removed, 0u);
  EXPECT_EQ(Interpreter().run(zeros.graph).single_output("y"), Value(0));
}

TEST(Optimize, IdentityCycleKeepsOneNode) {
  // Two `+ 0` nodes feeding each other have no source outside the cycle, so
  // bypassing both would leave the output unfed: one of them stays. (The
  // round-by-round optimizer never returned on this graph.)
  GraphBuilder b;
  const NodeId first = b.arith_imm(BinOp::Add, Value(std::int64_t{0}));
  const NodeId second = b.arith_imm(BinOp::Add, Value(std::int64_t{0}));
  b.connect(GraphBuilder::out(first), second, 0);
  b.connect(GraphBuilder::out(second), first, 0);
  b.output(GraphBuilder::out(second), "y");
  const auto r = optimize(std::move(b).build());
  EXPECT_EQ(r.bypassed, 1u);
  EXPECT_EQ(r.graph.node_count(), 2u);
  EXPECT_TRUE(Interpreter().run(r.graph).outputs.empty());
}

TEST(Optimize, PassWorkIsLinearInAConstantChain) {
  // Folding used to take one whole-graph round per link, up to 16 rounds,
  // each with an O(nodes x edges) liveness walk, so 4x the nodes cost ~16x
  // the time. One pass visits each node a fixed number of times, for a
  // `+ 1` chain that folds and for a `+ 0` chain that bypasses. The count is
  // exact on every host, build and sanitizer, where a ratio of two pass
  // times moved with the machine's load.
  const auto visits = [](std::size_t links, std::int64_t imm) {
    const auto r = optimize(constant_chain(links, imm));
    EXPECT_EQ(r.graph.node_count(), 2u);
    return r.visits;
  };
  for (const std::int64_t imm : {1, 0}) {
    const std::size_t shorter = visits(8192, imm);
    const std::size_t longer = visits(32768, imm);
    // n links make n + 2 nodes, and the marking, resolving and rebuilding
    // loops visit each of them: 3n + 6. A `+ 1` chain's fold worklist pops
    // every node once, and each link and the output once more when its
    // producer folds (2n + 2); the liveness stack pops the output and the
    // last folded link (2): 5n + 10 in all. A `+ 0` chain's links are each
    // walked once (n) and never queued; the worklist and the liveness stack
    // each pop the root and the output (4): 4n + 10.
    const std::size_t per_link = imm == 1 ? 5 : 4;
    EXPECT_EQ(shorter, per_link * 8192 + 10) << "x + " << imm;
    EXPECT_EQ(longer, per_link * 32768 + 10) << "x + " << imm;
    EXPECT_LE(longer, 4 * shorter) << "x + " << imm << ": 32768 links "
                                   << longer << " visits, 8192 links "
                                   << shorter;
  }
}

}  // namespace
}  // namespace gammaflow::dataflow

// ---- Gamma-side optimizer: fusion planner, cost model, boundedness ------

#include "gammaflow/analysis/optimize.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow {
namespace {

using analysis::Growth;
using analysis::OptimizeOptions;
using gamma::Element;
using gamma::Multiset;
using gamma::Program;

Multiset gamma_fixpoint(const Program& p, const Multiset& m,
                        const std::string& engine, std::uint64_t seed = 7) {
  gamma::RunOptions opts;
  opts.seed = seed;
  opts.workers = 3;
  std::unique_ptr<gamma::Engine> eng;
  if (engine == "seq") eng = std::make_unique<gamma::SequentialEngine>();
  if (engine == "idx") eng = std::make_unique<gamma::IndexedEngine>();
  if (engine == "par") eng = std::make_unique<gamma::ParallelEngine>();
  const auto r = eng->run(p, m, opts);
  EXPECT_EQ(r.outcome, Outcome::Completed);
  return r.final_multiset;
}

Multiset labeled(std::initializer_list<std::pair<std::int64_t, const char*>>
                     elements) {
  Multiset m;
  for (const auto& [v, l] : elements) {
    m.add(Element{Value(v), Value(std::string(l))});
  }
  return m;
}

TEST(GammaOptimize, Fig1AutoFusesToPaperReducedForm) {
  // The planner must find both feed chains (R1 -'B2'-> R3, R2 -'C2'-> R3)
  // and collapse Fig. 1's three reactions into the paper's one-reaction Rd1
  // shape: arity 4, single unconditional branch.
  const auto r = analysis::optimize_program(paper::fig1_gamma(),
                                            paper::fig1_initial());
  EXPECT_EQ(r.report.fused, 2u);
  EXPECT_EQ(r.report.dead_removed, 0u);
  EXPECT_TRUE(r.report.class_check_ok);
  ASSERT_EQ(r.program.all_reactions().size(), 1u);
  EXPECT_EQ(r.program.all_reactions()[0]->arity(), 4u);

  // Identical fixpoint to the original AND to the hand-reduced Rd1.
  const Multiset expected =
      gamma_fixpoint(paper::fig1_gamma(), paper::fig1_initial(), "idx");
  EXPECT_EQ(gamma_fixpoint(r.program, paper::fig1_initial(), "idx"), expected);
  EXPECT_EQ(gamma_fixpoint(paper::fig1_reduced_gamma(), paper::fig1_initial(),
                           "idx"),
            expected);
}

TEST(GammaOptimize, TelemetryCountersRecordDecisions) {
  obs::Telemetry tel;
  OptimizeOptions opts;
  opts.telemetry = &tel;
  (void)analysis::optimize_program(paper::fig1_gamma(), paper::fig1_initial(),
                                   opts);
  EXPECT_EQ(tel.stats().counter("opt.fused"), 2u);
  EXPECT_GE(tel.stats().counter("opt.chains_found"), 2u);
  EXPECT_EQ(tel.stats().counter("opt.rejected_by_cost"), 0u);
}

TEST(GammaOptimize, GuardedProducerFoldsGuardIntoEveryBranch) {
  // A producer with one guard over its own binders still fuses: the guard
  // is conjoined into each consumer branch, and the consumer's else branch
  // becomes an explicit negation. Exercise both guard outcomes.
  const Program p = gamma::dsl::parse_program(
      "P = replace [x, 'A'], [y, 'B'] by [x + y, 'Mid'] if x > y\n"
      "C = replace [v, 'Mid'], [z, 'D'] by [v * z, 'Out'] if v > 10"
      " by [v + z, 'Out'] else");
  const Multiset hot = labeled({{9, "A"}, {3, "B"}, {2, "D"}});
  const Multiset cold = labeled({{3, "A"}, {9, "B"}, {2, "D"}});

  for (const Multiset& init : {hot, cold}) {
    const auto r = analysis::optimize_program(p, init);
    EXPECT_EQ(r.report.fused, 1u);
    ASSERT_EQ(r.report.rewrites.size(), 1u);
    EXPECT_TRUE(r.report.rewrites[0].conditional_producer);
    for (const char* engine : {"seq", "idx", "par"}) {
      EXPECT_EQ(gamma_fixpoint(r.program, init, engine),
                gamma_fixpoint(p, init, engine))
          << engine;
    }
  }
}

TEST(GammaOptimize, SharedIntermediateLabelBlocksFusion) {
  // 'Mid' has two consumers: not private (S1), so nothing may fuse.
  const Program p = gamma::dsl::parse_program(
      "P = replace [x, 'A'] by [x + 1, 'Mid']\n"
      "C1 = replace [v, 'Mid'] by [v * 2, 'Out']\n"
      "C2 = replace [v, 'Mid'] by [v * 3, 'Out']");
  const auto r =
      analysis::optimize_program(p, labeled({{1, "A"}}));
  EXPECT_EQ(r.report.fused, 0u);
  EXPECT_EQ(r.program.all_reactions().size(), 3u);
}

TEST(GammaOptimize, InitialAndPreservedLabelsBlockFusion) {
  const Program p = gamma::dsl::parse_program(
      "P = replace [x, 'A'] by [x + 1, 'Mid']\n"
      "C = replace [v, 'Mid'] by [v * 2, 'Out']");
  // 'Mid' present initially: the fused form would ignore those elements.
  const auto seeded = analysis::optimize_program(
      p, labeled({{1, "A"}, {5, "Mid"}}));
  EXPECT_EQ(seeded.report.fused, 0u);
  // 'Mid' preserved by request: the caller wants to observe it.
  OptimizeOptions opts;
  opts.preserve_labels = {"Mid"};
  const auto preserved =
      analysis::optimize_program(p, labeled({{1, "A"}}), opts);
  EXPECT_EQ(preserved.report.fused, 0u);
}

TEST(GammaOptimize, PartialConsumerBlocksFusion) {
  // C has no else: a 'Mid' element with v <= 10 parks at the fixpoint, a
  // state the fused program cannot represent (S6).
  const Program p = gamma::dsl::parse_program(
      "P = replace [x, 'A'] by [x + 1, 'Mid']\n"
      "C = replace [v, 'Mid'] by [v * 2, 'Out'] if v > 10");
  const auto r = analysis::optimize_program(p, labeled({{1, "A"}}));
  EXPECT_EQ(r.report.fused, 0u);
  const Multiset init = labeled({{1, "A"}});
  EXPECT_EQ(gamma_fixpoint(r.program, init, "idx"),
            gamma_fixpoint(p, init, "idx"));
}

TEST(GammaOptimize, FusedLogicIdentityKeepsBoolWithoutInitial) {
  // Without an initial store there is no S7 probe, so the fused body is all
  // that stands between the rewrite and a changed fixpoint: substituting
  // y := x into `true and y` must still yield true for x = 5, not 5.
  const Program p = gamma::dsl::parse_program(
      "A = replace [x, 'a'] by [x, 'm']\n"
      "B = replace [y, 'm'] by [true and y, 'b']");
  const auto r = analysis::optimize_program(p, Multiset{});
  EXPECT_EQ(r.report.fused, 1u);
  const Multiset init = labeled({{5, "a"}});
  const Multiset expected{Element{Value(true), Value(std::string("b"))}};
  EXPECT_EQ(gamma_fixpoint(p, init, "idx"), expected);
  EXPECT_EQ(gamma_fixpoint(r.program, init, "idx"), expected);
}

TEST(GammaOptimize, MaxStepsCapsAppliedFusions) {
  OptimizeOptions opts;
  opts.max_steps = 1;
  const auto r = analysis::optimize_program(paper::fig1_gamma(),
                                            paper::fig1_initial(), opts);
  EXPECT_EQ(r.report.fused, 1u);
  EXPECT_EQ(r.program.all_reactions().size(), 2u);
}

TEST(GammaOptimize, CostModelRejectsWhenParallelismPays) {
  // With one worker the fused form always wins (less total work). With far
  // more workers than matches, fusing halves the concurrency the engine
  // could have exploited — the cost model must say no.
  const Program p = gamma::dsl::parse_program(
      "P = replace [x, 'A'], [y, 'B'] by [x + y, 'Mid']\n"
      "C = replace [v, 'Mid'], [z, 'D'] by [v * z, 'Out']");
  const Multiset init = labeled({{1, "A"}, {2, "B"}, {3, "D"}});

  OptimizeOptions wide;
  wide.cost.workers = 64;
  const auto rejected = analysis::optimize_program(p, init, wide);
  EXPECT_EQ(rejected.report.fused, 0u);
  EXPECT_GE(rejected.report.rejected_by_cost, 1u);

  // Same program, cost model off: the safe rewrite applies regardless.
  wide.use_cost_model = false;
  const auto forced = analysis::optimize_program(p, init, wide);
  EXPECT_EQ(forced.report.fused, 1u);
  EXPECT_EQ(forced.report.rejected_by_cost, 0u);
}

TEST(GammaOptimize, AppliedRewritesNeverRegressTheCostModel) {
  // Invariant of the gate: every applied rewrite improved (or matched) the
  // modeled stage time, and the whole-program estimate did not regress.
  for (unsigned workers : {1u, 2u, 8u}) {
    OptimizeOptions opts;
    opts.cost.workers = workers;
    const auto r = analysis::optimize_program(paper::fig1_gamma(),
                                              paper::fig1_initial(), opts);
    for (const auto& rw : r.report.rewrites) {
      if (rw.status != analysis::RewriteStatus::Applied) continue;
      EXPECT_LE(rw.cost_after, rw.cost_before) << "workers=" << workers;
    }
    EXPECT_LE(r.report.cost_after, r.report.cost_before)
        << "workers=" << workers;
  }
}

TEST(GammaOptimize, CostScalesMonotonicallyWithParams) {
  const Program fig1 = paper::fig1_gamma();
  const auto bounds =
      analysis::analyze_boundedness(fig1, paper::fig1_initial());
  const auto* r1 = fig1.all_reactions()[0];
  analysis::CostParams base;
  const auto c0 = analysis::estimate_reaction_cost(*r1, bounds, base);
  analysis::CostParams pricier = base;
  pricier.c_match *= 2;
  EXPECT_GT(analysis::estimate_reaction_cost(*r1, bounds, pricier).per_fire,
            c0.per_fire);
  pricier = base;
  pricier.c_store *= 2;
  EXPECT_GT(analysis::estimate_reaction_cost(*r1, bounds, pricier).per_fire,
            c0.per_fire);
  // More workers can only shrink a stage's modeled time.
  const auto& stage = fig1.stages()[0];
  analysis::CostParams wide = base;
  wide.workers = 8;
  EXPECT_LE(analysis::estimate_stage_cost(stage, bounds, wide).time,
            analysis::estimate_stage_cost(stage, bounds, base).time);
}

TEST(GammaOptimize, BoundednessFig1IsShrinkingWithAbsoluteBounds) {
  const auto b =
      analysis::analyze_boundedness(paper::fig1_gamma(), paper::fig1_initial());
  EXPECT_TRUE(b.initial_known);
  EXPECT_EQ(b.overall, Growth::Shrinking);
  EXPECT_EQ(b.labels.at("A1").growth, Growth::Shrinking);
  EXPECT_EQ(b.labels.at("A1").bound, 1u);
  EXPECT_EQ(b.labels.at("B2").growth, Growth::Bounded);
  EXPECT_EQ(b.labels.at("B2").bound, 1u);
  EXPECT_EQ(b.labels.at("m").bound, 1u);
}

TEST(GammaOptimize, SelfFeedingReactionIsPossiblyUnbounded) {
  // The classic runaway: 'A' keeps its live population at one element while
  // minting a fresh 'B' every firing. The cumulative firing bound must
  // diverge — pinning 'A' at its seed and dividing would unsoundly bound
  // the firings (and 'B') at one.
  const Program p = gamma::dsl::parse_program(
      "R = replace [x, 'A'] by [x + 1, 'A'], [x, 'B']");
  const auto b = analysis::analyze_boundedness(p, labeled({{0, "A"}}));
  EXPECT_EQ(b.labels.at("A").growth, Growth::Shrinking);
  EXPECT_EQ(b.labels.at("A").bound, 1u);
  EXPECT_EQ(b.labels.at("B").growth, Growth::PossiblyUnbounded);
  EXPECT_EQ(b.overall, Growth::PossiblyUnbounded);
}

TEST(GammaOptimize, UnlabeledDuplicatorIsPossiblyUnbounded) {
  const Program p = gamma::dsl::parse_program("R = replace x by x, x");
  Multiset m;
  m.add(Element{Value(1)});
  EXPECT_EQ(analysis::analyze_boundedness(p, m).overall,
            Growth::PossiblyUnbounded);
}

TEST(GammaOptimize, EmptyInitialKeepsBoundsSymbolic) {
  const Program p = gamma::dsl::parse_program(
      "P = replace [x, 'A'] by [x + 1, 'Mid']\n"
      "C = replace [v, 'Mid'] by [v * 2, 'Out']");
  const auto b = analysis::analyze_boundedness(p, Multiset{});
  EXPECT_FALSE(b.initial_known);
  // Growth signs still hold; no label is unbounded here.
  EXPECT_EQ(b.overall, Growth::Bounded);
  // And cardinality-driven dead elimination must not fire from symbolic
  // seeds ('A' would look dead only if we trusted a zero count).
  const auto r = analysis::optimize_program(p, Multiset{});
  EXPECT_EQ(r.report.dead_removed, 0u);
}

TEST(GammaOptimize, DeadReactionsAreRemoved) {
  const Program p = gamma::dsl::parse_program(
      "Live = replace [x, 'A'] by [x + 1, 'Out']\n"
      "Never = replace [x, 'A'] by [x, 'Out'] if 1 > 2\n"
      "Orphan = replace [x, 'Ghost'] by [x, 'Out']");
  const auto r = analysis::optimize_program(p, labeled({{1, "A"}}));
  EXPECT_EQ(r.report.dead_removed, 2u);
  ASSERT_EQ(r.program.all_reactions().size(), 1u);
  EXPECT_EQ(r.program.all_reactions()[0]->name(), "Live");
  const Multiset init = labeled({{1, "A"}});
  EXPECT_EQ(gamma_fixpoint(r.program, init, "idx"),
            gamma_fixpoint(p, init, "idx"));
}

TEST(GammaOptimize, LintsFlagDivergenceAndDeadConditions) {
  const Program p = gamma::dsl::parse_program(
      "Runaway = replace [x, 'A'] by [x + 1, 'A'], [x, 'B']\n"
      "Never = replace [x, 'A'] by [x, 'Out'] if 1 > 2");
  const auto lints = analysis::optimizer_lints(p, labeled({{0, "A"}}));
  EXPECT_FALSE(lints.of("possibly-unbounded-label").empty());
  EXPECT_FALSE(lints.of("unsatisfiable-reaction").empty());
}

TEST(GammaOptimize, DifferentialCorpus500Seeds) {
  // 500 random imperative programs through compile -> Algorithm 1; the
  // optimized Gamma program must reach the exact fixpoint of the original
  // on every engine (the optimizer may fuse, reject, or no-op — identity
  // of the final store is the contract either way). Every 10th seed also
  // crosses the distributed cluster.
  std::size_t total_fused = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto conv = translate::dataflow_to_gamma(
        frontend::compile_source(paper::random_source_program(seed)));
    const auto opt = analysis::optimize_program(conv.program, conv.initial);
    ASSERT_TRUE(opt.report.class_check_ok);
    total_fused += opt.report.fused;

    const Multiset expected =
        gamma_fixpoint(conv.program, conv.initial, "idx", seed);
    for (const char* engine : {"seq", "idx", "par"}) {
      EXPECT_EQ(gamma_fixpoint(opt.program, conv.initial, engine, seed),
                expected)
          << engine;
    }
    if (seed % 10 == 0) {
      distrib::ClusterOptions copts;
      copts.nodes = 3;
      copts.seed = seed;
      const auto cluster =
          distrib::run_distributed(opt.program, conv.initial, copts);
      EXPECT_EQ(cluster.final_multiset, expected);
    }
  }
  // The corpus is not vacuous: translated expression chains do fuse.
  EXPECT_GT(total_fused, 0u);
}

}  // namespace
}  // namespace gammaflow
