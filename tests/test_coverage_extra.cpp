// Supplementary coverage: imperative lexing mode, engine option corners,
// result-accessor edge cases, and cross-cutting printing invariants.
#include <gtest/gtest.h>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/expr/lexer.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"

namespace gammaflow {
namespace {

using expr::LexMode;
using expr::TokenKind;
using expr::tokenize;

TEST(LexerModes, ImperativeTokensOnlyInImperativeMode) {
  // Expression mode: '--x' is two unary minuses (the DSL/printer contract).
  const auto expr_toks = tokenize("--x");
  EXPECT_EQ(expr_toks[0].kind, TokenKind::Minus);
  EXPECT_EQ(expr_toks[1].kind, TokenKind::Minus);
  // Imperative mode: it is the decrement operator.
  const auto imp_toks = tokenize("--x", LexMode::Imperative);
  EXPECT_EQ(imp_toks[0].kind, TokenKind::MinusMinus);
}

TEST(LexerModes, BracesRejectedInExpressionMode) {
  EXPECT_THROW((void)tokenize("{ }"), ParseError);
  EXPECT_EQ(tokenize("{ }", LexMode::Imperative)[0].kind, TokenKind::LBrace);
}

TEST(LexerModes, TypeWordsAreKeywordsOnlyImperatively) {
  // 'int' stays a plain identifier for the Gamma DSL (usable as a variable).
  EXPECT_EQ(tokenize("int")[0].kind, TokenKind::Ident);
  EXPECT_EQ(tokenize("int", LexMode::Imperative)[0].kind, TokenKind::KwVar);
  EXPECT_EQ(tokenize("for")[0].kind, TokenKind::Ident);
  EXPECT_EQ(tokenize("for", LexMode::Imperative)[0].kind, TokenKind::KwFor);
}

TEST(LexerModes, CxxCommentsOnlyImperative) {
  // In expression mode '//' is two divisions (an error downstream, but two
  // Slash tokens here).
  const auto toks = tokenize("1 // 2");
  EXPECT_EQ(toks[1].kind, TokenKind::Slash);
  const auto imp = tokenize("1 // 2", LexMode::Imperative);
  EXPECT_EQ(imp[1].kind, TokenKind::End);  // comment swallowed the rest
}

TEST(LexerModes, CompoundAssignTokens) {
  const auto toks = tokenize("a += 1; b -= 2", LexMode::Imperative);
  EXPECT_EQ(toks[1].kind, TokenKind::PlusEq);
  EXPECT_EQ(toks[5].kind, TokenKind::MinusEq);
}

TEST(EngineOptions, UniformCapStillReachesFixpoint) {
  // A tiny cap degrades fairness, never correctness.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  gamma::Multiset m;
  for (std::int64_t i = 1; i <= 30; ++i) m.add(gamma::Element{Value(i)});
  gamma::RunOptions opts;
  opts.uniform_cap = 2;
  const auto r = gamma::SequentialEngine().run(p, m, opts);
  EXPECT_EQ(r.final_multiset, (gamma::Multiset{gamma::Element{Value(465)}}));
}

TEST(EngineOptions, ParallelTraceCoversAllStages) {
  const auto p = gamma::dsl::parse_program(
      "A = replace [x,'p'] by [x + 1,'q'] ; B = replace [x,'q'] by [x * 2,'r']");
  const gamma::Multiset m{gamma::Element::labeled(Value(5), "p")};
  gamma::RunOptions opts;
  obs::RunRecorder recorder;
  opts.record = &recorder;
  opts.workers = 2;
  const auto r = gamma::ParallelEngine().run(p, m, opts);
  const obs::Journal j = recorder.take();
  ASSERT_EQ(j.fires.size(), 2u);
  EXPECT_EQ(j.fires[0].stage, 0);
  EXPECT_EQ(j.fires[1].stage, 1);
  EXPECT_EQ(r.final_multiset, (gamma::Multiset{gamma::Element::labeled(Value(12), "r")}));
}

TEST(EngineOptions, SeedZeroIsValid) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x where x < y");
  gamma::RunOptions opts;
  opts.seed = 0;
  const auto r = gamma::IndexedEngine().run(
      p, gamma::Multiset{gamma::Element{Value(2)}, gamma::Element{Value(1)}},
      opts);
  EXPECT_EQ(r.final_multiset, (gamma::Multiset{gamma::Element{Value(1)}}));
}

TEST(DfResults, OutputValuesStableSortPreservesArrivalForEqualTags) {
  dataflow::DfRunResult r;
  r.outputs["o"] = {{3, Value(30)}, {1, Value(11)}, {1, Value(12)}};
  const auto v = r.output_values("o");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], Value(11));  // tag 1, first arrival
  EXPECT_EQ(v[1], Value(12));  // tag 1, second arrival
  EXPECT_EQ(v[2], Value(30));
}

TEST(Printing, GraphStreamFormListsEverything) {
  const auto g = paper::fig1_graph();
  const std::string s = g.to_string();
  EXPECT_NE(s.find("8 nodes, 7 edges"), std::string::npos);
  EXPECT_NE(s.find("arith(+) 'R1'"), std::string::npos);
  EXPECT_NE(s.find("-[B2]->"), std::string::npos);
}

TEST(Printing, ProgramStagePrintReparses) {
  const auto p = gamma::dsl::parse_program(
      "A = replace [x,'p'] by [x,'q'] ; B = replace [x,'q'] by [x,'r']");
  const auto again = gamma::dsl::parse_program(p.to_string());
  EXPECT_EQ(again.stage_count(), 2u);
  EXPECT_EQ(again.to_string(), p.to_string());
}

TEST(PaperBuilders, GeneratedSourcesAlwaysCompile) {
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    const std::string src = paper::random_source_program(seed);
    EXPECT_NO_THROW((void)frontend::compile_source(src)) << src;
  }
}

}  // namespace
}  // namespace gammaflow
