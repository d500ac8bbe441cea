// Interference & confluence analysis: footprints, conflict classes, the
// probe-based confluence verdict, the cluster affinity the classes feed,
// and oracle checks of the engines on independent chains.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <set>
#include <sstream>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/analysis/lint.hpp"
#include "gammaflow/analysis/optimize.hpp"
#include "gammaflow/common/json.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow::analysis {
namespace {

using gamma::Element;
using gamma::Footprint;
using gamma::Multiset;
using gamma::Program;
using gamma::Reaction;

Program parse(const char* src) { return gamma::dsl::parse_program(src); }

Footprint footprint_of(const char* src, std::size_t index = 0) {
  const Program p = parse(src);
  return gamma::reaction_footprint(*p.all_reactions()[index]);
}

// --- Footprints ----------------------------------------------------------

TEST(Footprint, LiteralLabelsAreExact) {
  const Footprint f =
      footprint_of("R = replace [x,'a'], [y,'b'] by [x + y,'c']");
  EXPECT_EQ(f.consume_labels, (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(f.produce_labels, (std::set<std::string>{"c"}));
  EXPECT_FALSE(f.consume_any);
  EXPECT_FALSE(f.produce_any);
  EXPECT_TRUE(f.consume_arities.empty());
}

TEST(Footprint, UnlabeledPatternsUseArities) {
  const Footprint f = footprint_of("R = replace x, y by x + y");
  EXPECT_TRUE(f.consume_labels.empty());
  EXPECT_EQ(f.consume_arities, (std::set<std::size_t>{1}));
  EXPECT_EQ(f.produce_arities, (std::set<std::size_t>{1}));
  EXPECT_FALSE(f.consume_any);
}

TEST(Footprint, ConditionBoundsLabelBinder) {
  // The token-merge disjunction shape Algorithm 1 emits.
  const Footprint f = footprint_of(
      "R = replace [x, l] by [x,'out'] if l == 'a' or l == 'b'");
  EXPECT_EQ(f.consume_labels, (std::set<std::string>{"a", "b"}));
  EXPECT_FALSE(f.consume_any);
}

TEST(Footprint, UnboundedLabelBinderIsWildcard) {
  const Footprint f = footprint_of("R = replace [x, l] by [x,'out'] if x > 0");
  EXPECT_TRUE(f.consume_any);
}

TEST(Footprint, NegatedConditionGivesUpSoundly) {
  // `not (l == 'a')` admits every label BUT 'a'; the only sound label
  // bound we can state is "anything".
  const Footprint f =
      footprint_of("R = replace [x, l] by [x,'out'] if not (l == 'a')");
  EXPECT_TRUE(f.consume_any);
}

TEST(Footprint, ElseBranchOutputsAreCounted) {
  const Footprint f = footprint_of(
      "R = replace [x,'a'] by [x,'pos'] if x > 0 by [x,'neg'] else");
  EXPECT_EQ(f.produce_labels, (std::set<std::string>{"neg", "pos"}));
}

TEST(Footprint, PassedThroughLabelBinderKeepsItsBound) {
  const Footprint f = footprint_of("R = replace [x, l] by [x, l] if l == 'a'");
  // The output label is the bounded consume-side binder: both sides exact.
  EXPECT_FALSE(f.consume_any);
  EXPECT_FALSE(f.produce_any);
  EXPECT_EQ(f.produce_labels, (std::set<std::string>{"a"}));
}

TEST(Footprint, UnboundedOutputLabelIsProduceAny) {
  // `l` is unconstrained, so both the consumption and the production may
  // touch any label.
  const Footprint f = footprint_of("R = replace [x, l] by [x + 1, l]");
  EXPECT_TRUE(f.consume_any);
  EXPECT_TRUE(f.produce_any);
}

TEST(Footprint, ToStringIsReadable) {
  const Footprint f = footprint_of("R = replace [x,'a'] by [x,'b']");
  EXPECT_NE(f.to_string().find("'a'"), std::string::npos);
  EXPECT_NE(f.to_string().find("'b'"), std::string::npos);
}

// --- Relations -----------------------------------------------------------

TEST(Relations, DisjointLabelsDoNotCompete) {
  const Footprint a = footprint_of("A = replace [x,'a'] by [x,'a2']");
  const Footprint b = footprint_of("B = replace [x,'b'] by [x,'b2']");
  EXPECT_FALSE(compete(a, b));
  EXPECT_FALSE(feeds(a, b));
  EXPECT_FALSE(interferes(a, b));
}

TEST(Relations, SharedConsumedLabelCompetes) {
  const Footprint a = footprint_of("A = replace [x,'a'] by [x,'a2']");
  const Footprint b = footprint_of("B = replace [x,'a'] by [x,'b2']");
  EXPECT_TRUE(compete(a, b));
  EXPECT_TRUE(interferes(a, b));
}

TEST(Relations, ProducerFeedsConsumer) {
  const Footprint a = footprint_of("A = replace [x,'a'] by [x,'b']");
  const Footprint b = footprint_of("B = replace [x,'b'] by [x,'c']");
  EXPECT_FALSE(compete(a, b));
  EXPECT_TRUE(feeds(a, b));
  EXPECT_FALSE(feeds(b, a));
  EXPECT_TRUE(interferes(a, b));
}

TEST(Relations, WildcardOverlapsEverything) {
  const Footprint w = footprint_of("W = replace [x, l] by [x,'o'] if x > 0");
  const Footprint a = footprint_of("A = replace [x,'a'] by [x,'a2']");
  EXPECT_TRUE(compete(w, a));
  const Footprint u = footprint_of("U = replace x by 0 where x > 9");
  // Arity-1 wildcard labels vs arity-1 unlabeled: may be the same elements.
  EXPECT_TRUE(compete(w, u));
}

TEST(Relations, DifferentAritiesDoNotCompete) {
  const Footprint one = footprint_of("A = replace x, y by x + y");
  const Footprint two =
      footprint_of("B = replace [x,'p'], [y,'q'] by [x,'p2']");
  // Unlabeled arity-1 patterns cannot match labeled arity-2 elements.
  EXPECT_FALSE(compete(one, two));
}

// --- Conflict classes ----------------------------------------------------

TEST(Classes, DisjointChainsSplitIntoClasses) {
  const Program p = parse(R"(
    A = replace [x,'a'] by [x + 1,'b']
    B = replace [x,'b'] by [x,'c']
    P = replace [x,'p'] by [x + 1,'q']
    Q = replace [x,'q'] by [x,'r']
  )");
  const auto report = analyze_interference(p, {});
  EXPECT_EQ(report.class_count, 2u);
  // Feed edges keep each chain together...
  EXPECT_EQ(report.class_of[0], report.class_of[1]);
  EXPECT_EQ(report.class_of[2], report.class_of[3]);
  // ...and the chains apart.
  EXPECT_NE(report.class_of[0], report.class_of[2]);
}

TEST(Classes, WildcardCollapsesToOneClass) {
  const Program p = parse(R"(
    A = replace [x,'a'] by [x,'a2']
    B = replace [x,'b'] by [x,'b2']
    Sweep = replace [x, l] by 0 where x > 1000
  )");
  const auto report = analyze_interference(p, {});
  EXPECT_EQ(report.class_count, 1u);
}

TEST(Classes, StagesNeverShareClasses) {
  // Same labels in two sequential stages: not concurrent, so two classes.
  const Program p = parse(R"(
    A = replace [x,'a'] by [x + 1,'a']  if x < 10;
    B = replace [x,'a'] by [x - 1,'a']  if x > 0
  )");
  ASSERT_EQ(p.stages().size(), 2u);
  const auto report = analyze_interference(p, {});
  EXPECT_EQ(report.class_count, 2u);
  EXPECT_NE(report.class_of[0], report.class_of[1]);
}

TEST(Classes, EngineClassesMapsNames) {
  const Program p = parse(R"(
    A = replace [x,'a'] by [x,'a2']
    B = replace [x,'b'] by [x,'b2']
  )");
  const auto report = analyze_interference(p, {});
  const auto classes = report.engine_classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_NE(classes.at("A"), classes.at("B"));
}

TEST(Classes, LabelAffinityCoversConsumedAndProducedLabels) {
  const Program p = parse(R"(
    A = replace [x,'a'] by [x,'a2']
    B = replace [x,'b'] by [x,'b2']
  )");
  const auto report = analyze_interference(p, {});
  const auto affinity = report.label_affinity();
  EXPECT_EQ(affinity.at("a"), affinity.at("a2"));
  EXPECT_EQ(affinity.at("b"), affinity.at("b2"));
  EXPECT_NE(affinity.at("a"), affinity.at("b"));
}

// --- Verdicts on the paper programs --------------------------------------

TEST(Confluence, Fig1IsNotNonConfluent) {
  const auto report =
      analyze_interference(paper::fig1_gamma(), paper::fig1_initial());
  EXPECT_NE(report.verdict, ConfluenceVerdict::NonConfluent)
      << report.to_string();
  EXPECT_FALSE(report.has_divergence());
  // R1 and R2 touch disjoint labels: statically independent, no edge.
  for (const auto& [i, j] : report.edges) {
    EXPECT_FALSE(report.reactions[i] == "R1" && report.reactions[j] == "R2");
  }
}

TEST(Confluence, Fig2IsNotNonConfluent) {
  const auto report = analyze_interference(paper::fig2_gamma(),
                                           paper::fig2_initial(3, 5, 100));
  EXPECT_NE(report.verdict, ConfluenceVerdict::NonConfluent)
      << report.to_string();
}

TEST(Confluence, TranslatedGraphProgramIsNotNonConfluent) {
  // Algorithm 1 output is confluent by construction (deterministic source
  // graph); the analysis must never claim otherwise.
  const auto conv =
      translate::dataflow_to_gamma(paper::fig2_graph(3, 5, 0, true));
  const auto report = analyze_interference(conv.program, conv.initial);
  EXPECT_NE(report.verdict, ConfluenceVerdict::NonConfluent)
      << report.to_string();
}

TEST(Confluence, TranslatedProgramsLintClean) {
  // Translation validation, Algorithm 1 direction: every converted program
  // passes the Gamma linter with zero errors.
  const dataflow::Graph graphs[] = {
      paper::fig1_graph(), paper::fig2_graph(3, 5, 0, true),
      paper::multi_loop_graph(2, 3), paper::random_expression_graph(7, 42)};
  for (const auto& g : graphs) {
    const auto conv = translate::dataflow_to_gamma(g);
    const auto report = lint_program(conv.program, conv.initial);
    EXPECT_EQ(report.errors(), 0u) << report;
  }
}

TEST(Confluence, IndependentPinnedPairsProveConfluent) {
  // Label-pinned, initial multiplicity 1, labels never produced: the static
  // refinement alone proves determinism, no probes needed.
  const Program p = parse(R"(
    A = replace [x,'a'], [y,'b'] by [x + y,'s']
    B = replace [x,'c'], [y,'d'] by [x * y,'t']
  )");
  const Multiset init{
      Element::labeled(Value(1), "a"), Element::labeled(Value(2), "b"),
      Element::labeled(Value(3), "c"), Element::labeled(Value(4), "d")};
  const auto report = analyze_interference(p, init);
  EXPECT_EQ(report.verdict, ConfluenceVerdict::Confluent) << report.to_string();
  EXPECT_TRUE(report.pairs.empty()) << report.to_string();
}

TEST(Confluence, SubtractionDiverges) {
  const Program p = parse("Rsub = replace x, y by x - y");
  const Multiset init{Element{Value(3)}, Element{Value(5)},
                      Element{Value(11)}};
  const auto report = analyze_interference(p, init);
  EXPECT_EQ(report.verdict, ConfluenceVerdict::NonConfluent)
      << report.to_string();
  EXPECT_TRUE(report.has_divergence());
}

TEST(Confluence, DivergenceWitnessRechecks) {
  // The PairFinding must be a proof: replaying the continuation from both
  // post-firing states with the recorded seed reproduces both fixpoints.
  const Program p = parse("Rsub = replace x, y by x - y");
  const Multiset init{Element{Value(3)}, Element{Value(5)},
                      Element{Value(11)}};
  const auto report = analyze_interference(p, init);
  const PairFinding* diverged = nullptr;
  for (const auto& f : report.pairs) {
    if (f.status == PairStatus::Diverges) diverged = &f;
  }
  ASSERT_NE(diverged, nullptr) << report.to_string();
  EXPECT_NE(diverged->fixpoint1, diverged->fixpoint2);

  gamma::RunOptions ro;
  ro.seed = diverged->witness_seed;
  const auto r1 = gamma::IndexedEngine().run(p, diverged->witness_m1, ro);
  const auto r2 = gamma::IndexedEngine().run(p, diverged->witness_m2, ro);
  EXPECT_EQ(r1.final_multiset, diverged->fixpoint1);
  EXPECT_EQ(r2.final_multiset, diverged->fixpoint2);
  EXPECT_NE(r1.final_multiset, r2.final_multiset);
}

TEST(Confluence, ZeroProbeBudgetLeavesCompetitionUnknown) {
  const Program p = parse("Rsub = replace x, y by x - y");
  const Multiset init{Element{Value(3)}, Element{Value(5)}};
  InterferenceOptions opts;
  opts.probe_states = 0;
  const auto report = analyze_interference(p, init, opts);
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_EQ(report.pairs[0].status, PairStatus::Unknown);
  EXPECT_EQ(report.verdict, ConfluenceVerdict::LikelyConfluent);
}

TEST(Confluence, MaxReductionCommutesUnderProbing) {
  // max is associative-commutative: every probed conflict must rejoin.
  const Program p = parse("Rmax = replace x, y by x where x > y");
  const Multiset init{Element{Value(3)}, Element{Value(9)}, Element{Value(5)},
                      Element{Value(1)}};
  const auto report = analyze_interference(p, init);
  EXPECT_EQ(report.verdict, ConfluenceVerdict::LikelyConfluent)
      << report.to_string();
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_EQ(report.pairs[0].status, PairStatus::Commutes);
}

TEST(Confluence, ProbeSamplingKeepsPeakMemoryBounded) {
  // The probe samples reachable states by budgeted re-runs and holds only
  // the sampled multisets, never every intermediate one: a sum over 8000
  // ints stays far below 256 MB of peak RSS. Each ctest case is its own
  // process, so ru_maxrss (KiB on Linux) is this analysis alone.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators inflate RSS";
#endif
  const Program p = parse("R = replace x, y by x + y");
  Multiset init;
  for (std::int64_t i = 1; i <= 8000; ++i) init.add(Element{Value(i)});
  const auto report = analyze_interference(p, init);
  ASSERT_EQ(report.pairs.size(), 1u);
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 256L * 1024);
}

// --- Reports -------------------------------------------------------------

TEST(Report, TextAndJsonRender) {
  const auto report =
      analyze_interference(paper::fig1_gamma(), paper::fig1_initial());
  EXPECT_NE(report.to_string().find("verdict"), std::string::npos);
  std::ostringstream os;
  write_json(os, report);
  const std::string js = os.str();
  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(js.back(), '}');
  EXPECT_NE(js.find("\"verdict\""), std::string::npos);
  EXPECT_NE(js.find("\"class_count\""), std::string::npos);
}

TEST(Report, TypedEdgesSeparateFeedFromCompetition) {
  // Fig. 1: R1 and R2 compete for nothing and feed R3 ('B2', 'C2'); the
  // typed edge list must carry the direction the DSU-edge list flattens.
  const auto report =
      analyze_interference(paper::fig1_gamma(), paper::fig1_initial());
  ASSERT_EQ(report.typed_edges.size(), report.edges.size());
  bool r1_feeds_r3 = false, any_compete = false;
  for (const auto& e : report.typed_edges) {
    const std::string& a = report.reactions[e.r1];
    const std::string& b = report.reactions[e.r2];
    if (a == "R1" && b == "R3") r1_feeds_r3 = e.feeds_12 && !e.feeds_21;
    if (e.compete) any_compete = true;
  }
  EXPECT_TRUE(r1_feeds_r3);
  EXPECT_FALSE(any_compete);
}

TEST(Report, JsonCarriesFeedAndCompeteEdgeLists) {
  // A program with both relations: P feeds C through 'Mid', and the two
  // consumers C and D compete for it.
  const Program p = parse(
      "P = replace [x, 'A'] by [x, 'Mid']\n"
      "C = replace [v, 'Mid'] by [v, 'Out']\n"
      "D = replace [v, 'Mid'] by [v + 1, 'Out']");
  Multiset m;
  m.add(Element{Value(1), Value(std::string("A"))});
  const auto report = analyze_interference(p, m);
  std::ostringstream os;
  write_json(os, report);
  const std::string js = os.str();
  EXPECT_NE(js.find("\"feed_edges\""), std::string::npos);
  EXPECT_NE(js.find("\"compete_edges\""), std::string::npos);
  EXPECT_NE(js.find("[\"P\",\"C\"]"), std::string::npos);
  EXPECT_NE(js.find("[\"P\",\"D\"]"), std::string::npos);
  EXPECT_NE(js.find("[\"C\",\"D\"]"), std::string::npos);
}

TEST(Report, CheckJsonEscapesControlCharactersInLabels) {
  // `check --json` prints the lint and interference reports in one object.
  // A label holding a tab used to reach the output raw, which JSON readers
  // reject.
  const std::string label = "a\tb";
  const Program p =
      parse("R = replace [x,'a\tb'], [y,'a\tb'] by [x - y,'a\tb']");
  Multiset init;
  for (const std::int64_t v : {3, 5, 11}) {
    init.add(Element::labeled(Value(v), label));
  }
  LintReport lint = lint_program(p, init);
  const LintReport opt_lints = optimizer_lints(p, init);
  lint.findings.insert(lint.findings.end(), opt_lints.findings.begin(),
                       opt_lints.findings.end());
  const auto report = analyze_interference(p, init);
  const PairFinding* diverged = nullptr;
  for (const auto& f : report.pairs) {
    if (f.status == PairStatus::Diverges) diverged = &f;
  }
  ASSERT_NE(diverged, nullptr) << report.to_string();
  const std::string witness = diverged->witness.to_string();
  ASSERT_NE(witness.find('\t'), std::string::npos) << witness;

  std::ostringstream os;
  os << "{\"lint\":";
  write_json(os, lint);
  os << ",\"interference\":";
  write_json(os, report);
  os << '}';
  const std::string js = os.str();
  for (const char c : js) {
    ASSERT_GE(static_cast<unsigned char>(c), 0x20) << js;
  }
  const Json doc = parse_json(js);
  const Json* interference = doc.get("interference");
  ASSERT_NE(interference, nullptr);
  bool found = false;
  for (const Json& pair : interference->get("pairs")->as_arr()) {
    if (pair.str_or("status", "") != to_string(PairStatus::Diverges)) continue;
    EXPECT_EQ(pair.str_or("witness", ""), witness);
    found = true;
  }
  EXPECT_TRUE(found) << js;
}

// --- 500-seed commutation property ---------------------------------------

// Statically independent reactions must commute on EVERY state: committing
// two enabled matches in either order reaches the same multiset.
TEST(Property, IndependentPairsCommuteOn500RandomStates) {
  const Program p = parse(R"(
    A = replace [x,'a'] by [x + 1,'a2']
    B = replace [x,'b'] by [x * 2,'b2']
  )");
  const auto report = analyze_interference(p, {});
  ASSERT_EQ(report.class_count, 2u);
  ASSERT_TRUE(report.edges.empty());
  const Reaction& ra = *p.all_reactions()[0];
  const Reaction& rb = *p.all_reactions()[1];

  std::size_t exercised = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(seed * 2654435761u + 1);
    Multiset m;
    const std::size_t n = 2 + rng.bounded(6);
    for (std::size_t k = 0; k < n; ++k) {
      const auto v = static_cast<std::int64_t>(rng.bounded(100));
      m.add(Element::labeled(Value(v), rng.bounded(2) ? "a" : "b"));
    }
    gamma::Store forward(m, gamma::FieldSet::of(p));
    runtime::MatchSite sa;
    runtime::MatchSite sb;
    const bool found_a = runtime::MatchPipeline::find(forward, ra, &rng, sa);
    const bool found_b = runtime::MatchPipeline::find(forward, rb, &rng, sb);
    if (!found_a || !found_b) continue;  // state lacks an 'a' or a 'b'
    ++exercised;

    // A copy: the same slot ids and pinned literals, so both matches commit
    // there as found.
    gamma::Store backward(forward);
    runtime::MatchPipeline::commit(forward, sa.match());
    runtime::MatchPipeline::commit(forward, sb.match());
    runtime::MatchPipeline::commit(backward, sb.match());
    runtime::MatchPipeline::commit(backward, sa.match());
    EXPECT_EQ(forward.to_multiset(), backward.to_multiset())
        << "seed " << seed;
  }
  // The generator must actually exercise the property, not vacuously pass.
  EXPECT_GT(exercised, 200u);
}

// Confirmed-interfering counterexamples must show REAL divergence on every
// seed: distinct replayable fixpoints, not an artifact of one lucky probe.
TEST(Property, SubtractionDivergenceReproducesAcrossSeeds) {
  const Program p = parse("Rsub = replace x, y by x - y");
  std::size_t diverged = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed + 7);
    Multiset init;
    for (std::size_t k = 0; k < 3 + rng.bounded(3); ++k) {
      init.add(Element{Value(static_cast<std::int64_t>(rng.bounded(50)) + 1)});
    }
    InterferenceOptions opts;
    opts.seed = seed;
    const auto report = analyze_interference(p, init, opts);
    for (const auto& f : report.pairs) {
      if (f.status != PairStatus::Diverges) continue;
      ++diverged;
      EXPECT_NE(f.fixpoint1, f.fixpoint2) << "seed " << seed;
      gamma::RunOptions ro;
      ro.seed = f.witness_seed;
      EXPECT_EQ(gamma::IndexedEngine().run(p, f.witness_m1, ro).final_multiset,
                f.fixpoint1)
          << "seed " << seed;
      EXPECT_EQ(gamma::IndexedEngine().run(p, f.witness_m2, ro).final_multiset,
                f.fixpoint2)
          << "seed " << seed;
    }
  }
  // Subtraction over random positive multisets diverges essentially always.
  EXPECT_GT(diverged, 8u);
}

// --- Engine integration --------------------------------------------------

Multiset conflict_free_init(std::size_t per_label) {
  Multiset m;
  for (std::size_t k = 0; k < per_label; ++k) {
    const auto v = static_cast<std::int64_t>(k);
    m.add(Element::labeled(Value(v), "a"));
    m.add(Element::labeled(Value(v), "b"));
    m.add(Element::labeled(Value(v), "c"));
  }
  return m;
}

const char* kChains = R"(
  A = replace [x,'a'] by [x + 1,'a2']
  B = replace [x,'b'] by [x * 2,'b2']
  C = replace [x,'c'] by [x - 1,'c2']
)";

TEST(EngineIntegration, ParallelMatchesOracleOnIndependentChains) {
  const Program p = parse(kChains);
  const Multiset init = conflict_free_init(40);
  const Multiset oracle = gamma::IndexedEngine().run(p, init).final_multiset;

  obs::Telemetry telemetry;
  gamma::RunOptions ro;
  ro.workers = 3;
  ro.telemetry = &telemetry;
  const auto result = gamma::ParallelEngine().run(p, init, ro);

  EXPECT_EQ(result.final_multiset, oracle);
  EXPECT_EQ(result.steps, 120u);
}

TEST(EngineIntegration, MultiStageProgramsMatchOracle) {
  const Program p = parse(R"(
    A = replace [x,'a'] by [x + 1,'m'] ;
    B = replace [x,'m'], [y,'m'] by [x + y,'m']
  )");
  Multiset init;
  for (int k = 1; k <= 6; ++k) init.add(Element::labeled(Value(k), "a"));
  const Multiset oracle = gamma::IndexedEngine().run(p, init).final_multiset;

  gamma::RunOptions ro;
  ro.workers = 2;
  EXPECT_EQ(gamma::ParallelEngine().run(p, init, ro).final_multiset, oracle);
  EXPECT_EQ(gamma::IndexedEngine().run(p, init, ro).final_multiset, oracle);
}

TEST(EngineIntegration, ClusterAffinityPreservesResult) {
  const Program p = parse(kChains);
  const Multiset init = conflict_free_init(8);
  const auto report = analyze_interference(p, init);
  const Multiset oracle = gamma::IndexedEngine().run(p, init).final_multiset;

  distrib::ClusterOptions copts;
  copts.nodes = 3;
  copts.seed = 5;
  const auto plain = distrib::run_distributed(p, init, copts);
  EXPECT_EQ(plain.final_multiset, oracle);

  copts.label_affinity = report.label_affinity();
  const auto hinted = distrib::run_distributed(p, init, copts);
  EXPECT_EQ(hinted.final_multiset, oracle);
}

}  // namespace
}  // namespace gammaflow::analysis
