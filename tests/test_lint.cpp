// Static Gamma checking (Structured Gamma's compile-time-checking spirit):
// label-flow findings on good and defective programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "gammaflow/analysis/lint.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

namespace gammaflow::analysis {
namespace {

LintReport lint(const char* program, const gamma::Multiset& m = {}) {
  return lint_program(gamma::dsl::parse_program(program), m);
}

TEST(Lint, PaperFig1ProgramIsCleanExceptResultLabel) {
  const auto report =
      lint_program(paper::fig1_gamma(), paper::fig1_initial());
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.warnings(), 0u);
  // 'm' is produced and never consumed — exactly the program's output.
  const auto leaks = report.of("leaked-label");
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_NE(leaks[0].message.find("'m'"), std::string::npos);
  EXPECT_EQ(leaks[0].severity, Severity::Info);
}

TEST(Lint, PaperFig2ProgramIsClean) {
  const auto report =
      lint_program(paper::fig2_gamma(), paper::fig2_initial(3, 5, 100));
  EXPECT_EQ(report.errors(), 0u) << report;
  EXPECT_EQ(report.warnings(), 0u) << report;
}

TEST(Lint, ConvertedGraphsAreClean) {
  const auto conv =
      translate::dataflow_to_gamma(paper::fig2_graph(3, 5, 0, true));
  const auto report = lint_program(conv.program, conv.initial);
  EXPECT_EQ(report.errors(), 0u) << report;
}

TEST(Lint, DeadReactionDetected) {
  const auto report = lint(
      "R = replace [x,'ghost'] by [x,'out']",
      gamma::Multiset{gamma::Element::labeled(Value(1), "seed")});
  const auto dead = report.of("dead-reaction");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].severity, Severity::Error);
  EXPECT_EQ(dead[0].reaction, "R");
  EXPECT_NE(dead[0].message.find("'ghost'"), std::string::npos);
}

TEST(Lint, SelfProducingLabelIsNotDead) {
  // 'a' -> 'a' chains keep themselves alive.
  const auto report = lint("R = replace [x,'a'] by [x - 1,'a'] if x > 0");
  EXPECT_TRUE(report.of("dead-reaction").empty()) << report;
}

TEST(Lint, GuaranteedDivergenceDetected) {
  const auto report =
      lint("R = replace x by [x + 1], [x + 1]",
           gamma::Multiset{gamma::Element{Value(0)}});
  const auto div = report.of("guaranteed-divergence");
  ASSERT_EQ(div.size(), 1u);
  EXPECT_EQ(div[0].severity, Severity::Error);
}

TEST(Lint, GuardedGrowthIsNotFlagged) {
  // Growth behind a condition can reach a fixed point (tested elsewhere).
  const auto report =
      lint("R = replace x by [x - 1], [x - 1] where x > 0");
  EXPECT_TRUE(report.of("guaranteed-divergence").empty()) << report;
}

TEST(Lint, ShrinkingUnconditionalIsNotFlagged) {
  const auto report = lint("R = replace x, y by x + y");
  EXPECT_TRUE(report.of("guaranteed-divergence").empty()) << report;
}

TEST(Lint, ConstantConditionDetected) {
  const auto report = lint(R"(
    R = replace [x,'a'] by [x,'b'] if 1 < 2
  )");
  const auto cc = report.of("constant-condition");
  ASSERT_EQ(cc.size(), 1u);
  EXPECT_NE(cc[0].message.find("always true"), std::string::npos);
}

TEST(Lint, UnusedBinderDetected) {
  // 'y' is consumed for synchronization only.
  const auto report = lint("R = replace [x,'a'], [y,'b'] by [x,'c']");
  const auto ub = report.of("unused-binder");
  ASSERT_EQ(ub.size(), 1u);
  EXPECT_NE(ub[0].message.find("'y'"), std::string::npos);
  EXPECT_EQ(ub[0].severity, Severity::Info);
}

TEST(Lint, RepeatedBinderCountsAsUsed) {
  // `replace x, x by [x]` — the repeat IS the point (equality constraint).
  const auto report = lint("R = replace x, x by [x]");
  EXPECT_TRUE(report.of("unused-binder").empty()) << report;
}

TEST(Lint, SteerByZeroElseHasNoUnusedFindings) {
  // The converter's steer shape: id2 is read by the condition.
  const auto report = lint(R"(
    R = replace [id1,'D',v], [id2,'C',v]
        by [id1,'T',v] if id2 == 1
        by 0 else
  )");
  EXPECT_TRUE(report.of("unused-binder").empty()) << report;
}

TEST(Lint, WildcardConsumersSuppressLeakFindings) {
  // An unconstrained label-variable consumer might take anything, so no
  // label can be declared leaked.
  const auto report = lint(R"(
    P = replace [x, 'in'] by [x, 'sink']
    Sweep = replace [x, l] by 0 where x > 1000
  )");
  EXPECT_TRUE(report.of("leaked-label").empty()) << report;
}

TEST(Lint, ConstrainedLabelVariableIsNotWildcard) {
  // A label variable constrained to 'a' admits only 'a': 'sink' leaks.
  const auto report = lint(R"(
    R = replace [x, l, v] by [x, 'sink', v + 1] if l == 'a'
  )",
                           gamma::Multiset{gamma::Element::tagged(Value(1), "a", 0)});
  const auto leaks = report.of("leaked-label");
  ASSERT_EQ(leaks.size(), 1u);
  EXPECT_NE(leaks[0].message.find("'sink'"), std::string::npos);
}

// The three programs below once drew lint findings that a run refutes:
// lint kept its own label reader beside the reaction footprint.
const char* kComputedLabel =
    "P = replace [l, 'go'] by [1, l]\n"
    "C = replace [x, 'b'] by [x, 'done']";
const char* kNegatedGuard =
    "C = replace [x, l] by [x, 'done'] if not (l == 'a') and l != 'done'";
const char* kMixedArity =
    "P = replace [x, 'in'] by [x, 'out']\n"
    "Q = replace x, y by x + y";

gamma::Multiset elements(const char* text) {
  return gamma::dsl::parse_elements(text);
}

TEST(Lint, ComputedOutputLabelKeepsItsConsumerAlive) {
  // P's output label is the consumed value 'b', so C is not dead.
  const auto report = lint(kComputedLabel, elements("['b', 'go']"));
  EXPECT_TRUE(report.of("dead-reaction").empty()) << report;
  EXPECT_EQ(report.errors(), 0u) << report;
}

TEST(Lint, NegatedLabelGuardBindsAnyLabel) {
  // `not (l == 'a')` admits every label but 'a': C consumes 'b', so 'a'
  // is not needed and 'b' does not leak.
  const auto report = lint(kNegatedGuard, elements("[1, 'b']"));
  EXPECT_TRUE(report.clean()) << report;
}

TEST(Lint, UnlabeledPatternsDoNotConsumeLabeledElements) {
  // Q consumes arity-1 elements only, so nothing takes P's [x, 'out'].
  const auto report = lint(kMixedArity, elements("[1, 'in'] [2] [3]"));
  const auto leaks = report.of("leaked-label");
  ASSERT_EQ(leaks.size(), 1u) << report;
  EXPECT_NE(leaks[0].message.find("'out'"), std::string::npos);
}

/// Fires per reaction name in one seeded IndexedEngine run.
std::map<std::string, std::uint64_t> fires_by_reaction(
    const gamma::Program& program, const gamma::Multiset& initial) {
  obs::RunRecorder recorder;
  gamma::RunOptions options;
  options.record = &recorder;
  (void)gamma::IndexedEngine().run(program, initial, options);
  const obs::Journal journal = recorder.take();
  EXPECT_EQ(journal.fires_dropped, 0u);
  std::map<std::string, std::uint64_t> fires;
  for (const obs::FireRecord& f : journal.fires) ++fires[f.reaction];
  return fires;
}

/// Checks that every reaction lint calls dead fires 0 times; returns how
/// many dead-reaction findings there were.
std::size_t expect_dead_reactions_never_fire(const std::string& what,
                                             const gamma::Program& program,
                                             const gamma::Multiset& initial) {
  const auto dead = lint_program(program, initial).of("dead-reaction");
  if (dead.empty()) return 0;
  auto fires = fires_by_reaction(program, initial);
  for (const Finding& f : dead) {
    EXPECT_EQ(fires[f.reaction], 0u) << what << ": " << f.reaction;
  }
  return dead.size();
}

TEST(Lint, FlaggedDeadReactionsNeverFire) {
  std::size_t flagged = 0;
  const std::filesystem::path dir =
      std::filesystem::path(GF_REPO_DIR) / "examples" / "programs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string name = path.filename().string();
    if (path.extension() == ".gamma") {
      // The initial multisets CI runs the examples on.
      std::string init;
      if (name == "fig1.gamma") {
        init = "[1,'A1'] [5,'B1'] [3,'C1'] [2,'D1']";
      } else if (name == "min.gamma") {
        init = "[9] [4] [7] [2]";
      } else {
        for (int v = 2; v <= 30; ++v) init.append(std::to_string(v) + " ");
      }
      flagged += expect_dead_reactions_never_fire(
          name, gamma::dsl::parse_program(text.str()),
          gamma::dsl::parse_elements(init));
    } else if (path.extension() == ".src") {
      const auto conv = translate::dataflow_to_gamma(
          frontend::compile_source(text.str()));
      flagged +=
          expect_dead_reactions_never_fire(name, conv.program, conv.initial);
    }
  }
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto conv = translate::dataflow_to_gamma(
        frontend::compile_source(paper::random_source_program(seed)));
    flagged += expect_dead_reactions_never_fire(
        "seed " + std::to_string(seed), conv.program, conv.initial);
  }
  const std::vector<std::pair<const char*, const char*>> programs = {
      {kComputedLabel, "['b', 'go']"},
      {kNegatedGuard, "[1, 'b']"},
      {kMixedArity, "[1, 'in'] [2] [3]"},
      {"R = replace [x,'ghost'] by [x,'out']", "[1, 'seed']"},
  };
  for (const auto& [program, init] : programs) {
    flagged += expect_dead_reactions_never_fire(
        program, gamma::dsl::parse_program(program), elements(init));
  }
  // The 'ghost' program keeps the property from holding vacuously.
  EXPECT_GE(flagged, 1u);
}

TEST(Lint, CleanReportHelpers) {
  const auto report = lint("R = replace x, y by x + y");
  EXPECT_EQ(report.errors(), 0u);
  // min-style reduction over unlabeled elements: nothing to say.
  EXPECT_TRUE(report.of("dead-reaction").empty());
}

TEST(Lint, ReportPrintsReadably) {
  const auto report = lint(
      "R = replace [x,'ghost'] by [x,'out']");
  std::ostringstream os;
  os << report;
  EXPECT_NE(os.str().find("error [dead-reaction] R:"), std::string::npos);
}

}  // namespace
}  // namespace gammaflow::analysis
