// Viz tests: the DOT writers against golden files (one per graph kind, all
// inputs deterministic), and the HTML renderer's contract — stable DOM
// anchors, embedded JSON payload, and zero external fetches.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/serialize.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/viz/viz.hpp"

namespace gammaflow {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string golden(const std::string& name) {
  return read_file(std::string(GF_REPO_DIR) + "/tests/golden/" + name);
}

/// The paper's Fig. 1 listing (examples/programs/fig1.gamma): three
/// reactions, two independent conflict classes merged by R3's feeds.
gamma::Program fig1_program() {
  return gamma::dsl::parse_program(
      read_file(std::string(GF_REPO_DIR) + "/examples/programs/fig1.gamma"));
}

gamma::Multiset fig1_initial() {
  gamma::Multiset m;
  m.add(gamma::Element({Value(1), Value("A1")}));
  m.add(gamma::Element({Value(5), Value("B1")}));
  m.add(gamma::Element({Value(3), Value("C1")}));
  m.add(gamma::Element({Value(2), Value("D1")}));
  return m;
}

analysis::InterferenceReport fig1_report(const gamma::Program& program) {
  analysis::InterferenceOptions opts;
  opts.seed = 1;
  return analysis::analyze_interference(program, fig1_initial(), opts);
}

// ------------------------------------------------------------------ DOT ---

TEST(VizDot, InterferenceMatchesGolden) {
  const gamma::Program program = fig1_program();
  std::ostringstream os;
  viz::write_interference_dot(os, program, fig1_report(program), "fig1");
  EXPECT_EQ(os.str(), golden("fig1_interference.dot"));
}

TEST(VizDot, ClassesMatchesGolden) {
  const gamma::Program program = fig1_program();
  std::ostringstream os;
  viz::write_classes_dot(os, program, fig1_report(program), "fig1");
  EXPECT_EQ(os.str(), golden("fig1_classes.dot"));
}

TEST(VizDot, TwoClassProgramShowsDisjointClusters) {
  // Two reactions on provably disjoint labels: two clusters, no edges.
  const gamma::Program program = gamma::dsl::parse_program(
      "Ra = replace [x, 'a'], [y, 'a'] by [x + y, 'a']\n"
      "Rb = replace [x, 'b'], [y, 'b'] by [x * y, 'b']");
  analysis::InterferenceOptions opts;
  opts.seed = 1;
  const auto report =
      analysis::analyze_interference(program, gamma::Multiset{}, opts);
  ASSERT_EQ(report.class_count, 2u);
  std::ostringstream os;
  viz::write_interference_dot(os, program, report, "two");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("cluster_class0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_class1"), std::string::npos);
  EXPECT_EQ(dot.find("compete"), std::string::npos);
  EXPECT_EQ(dot.find("feed"), std::string::npos);
}

TEST(VizDot, DeterministicAcrossWrites) {
  const gamma::Program program = fig1_program();
  const auto report = fig1_report(program);
  std::ostringstream a, b;
  viz::write_classes_dot(a, program, report, "t");
  viz::write_classes_dot(b, program, report, "t");
  EXPECT_EQ(a.str(), b.str());
}

/// True when every line holds an even number of unescaped quotes, i.e. no
/// DOT string is left open.
bool dot_quotes_balanced(const std::string& dot) {
  std::istringstream lines(dot);
  for (std::string line; std::getline(lines, line);) {
    std::size_t quotes = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;
      } else if (line[i] == '"') {
        ++quotes;
      }
    }
    if (quotes % 2 != 0) return false;
  }
  return true;
}

TEST(VizDot, DataflowOutputNameWithQuoteIsEscaped) {
  // A .df file whose output is named b"x: the label must read out\nb\"x,
  // not end the DOT string after `b`.
  dataflow::GraphBuilder b;
  b.output(b.constant(Value(1)), "b\"x");
  std::ostringstream df;
  dataflow::write_text(df, std::move(b).build());
  const std::string dot =
      viz::to_dot(dataflow::parse_text(df.str()), "in\"put.df");
  EXPECT_NE(dot.find("digraph \"in\\\"put.df\" {"), std::string::npos) << dot;
  EXPECT_NE(dot.find("label=\"out\\nb\\\"x\""), std::string::npos) << dot;
  EXPECT_TRUE(dot_quotes_balanced(dot)) << dot;
}

TEST(VizDot, DataflowBackslashesAndNewlinesAreEscaped) {
  dataflow::GraphBuilder b;
  const auto k = b.constant(Value(1), "k\\1");
  b.connect(k, b.output("o\nut"), 0, "e\"0");
  const std::string dot = viz::to_dot(std::move(b).build());
  EXPECT_NE(dot.find("label=\"1\\nk\\\\1\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("label=\"out\\no\\nut\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("[label=\"e\\\"0\"]"), std::string::npos) << dot;
  EXPECT_TRUE(dot_quotes_balanced(dot)) << dot;
}

// ----------------------------------------------------------------- HTML ---

/// Every anchor the embedded JS (and this smoke test) relies on.
void expect_anchors(const std::string& html) {
  for (const char* anchor :
       {"id=\"gf-graph\"", "id=\"gf-scrubber\"", "id=\"gf-store\"",
        "id=\"gf-provenance\"",
        "<script id=\"gf-data\" type=\"application/json\">"}) {
    EXPECT_NE(html.find(anchor), std::string::npos) << anchor;
  }
}

/// Self-contained means self-contained: no resource may leave the file.
void expect_no_external_fetches(const std::string& html) {
  for (const char* pattern : {"src=\"http", "href=\"http", "fetch(", "<link",
                              "@import", "XMLHttpRequest"}) {
    EXPECT_EQ(html.find(pattern), std::string::npos) << pattern;
  }
}

TEST(VizHtml, DataflowViewEmbedsReplayableJournal) {
  const dataflow::Graph g = paper::fig1_graph();
  obs::RunRecorder rec;
  dataflow::DfRunOptions opts;
  opts.record = &rec;
  (void)dataflow::Interpreter().run(g, opts);
  const obs::Journal journal = rec.take();

  viz::HtmlInputs inputs;
  inputs.title = "fig1";
  inputs.graph = &g;
  inputs.journal = &journal;
  std::ostringstream os;
  viz::write_html(os, inputs);
  const std::string html = os.str();

  expect_anchors(html);
  expect_no_external_fetches(html);
  EXPECT_NE(html.find("\"kind\":\"dataflow\""), std::string::npos);
  // The journal rides along verbatim (and was verified consistent above the
  // embedding, so the scrubber's round-replay reaches the final store).
  EXPECT_EQ(obs::verify_journal(journal), "");
  EXPECT_NE(html.find("\"journal\":{\"gf_journal\":1"), std::string::npos);
  // One SVG-able node entry per graph node.
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    EXPECT_NE(html.find("\"key\":"), std::string::npos);
  }
}

TEST(VizHtml, GammaViewCarriesClassesAndJournal) {
  const gamma::Program program = fig1_program();
  const auto report = fig1_report(program);
  obs::RunRecorder rec;
  gamma::RunOptions opts;
  opts.record = &rec;
  const auto result =
      gamma::IndexedEngine().run(program, fig1_initial(), opts);
  const obs::Journal journal = rec.take();
  ASSERT_EQ(obs::replay_rounds(journal, journal.rounds.size()),
            runtime::store_counts(result.final_multiset));

  viz::HtmlInputs inputs;
  inputs.title = "fig1.gamma";
  inputs.program = &program;
  inputs.interference = &report;
  inputs.journal = &journal;
  std::ostringstream os;
  viz::write_html(os, inputs);
  const std::string html = os.str();

  expect_anchors(html);
  expect_no_external_fetches(html);
  EXPECT_NE(html.find("\"kind\":\"gamma\""), std::string::npos);
  EXPECT_NE(html.find("\"key\":\"R1\""), std::string::npos);
  EXPECT_NE(html.find("\"key\":\"R3\""), std::string::npos);
  EXPECT_NE(html.find("\"verdict\":"), std::string::npos);
}

TEST(VizHtml, NoJournalStillRendersAllAnchors) {
  const gamma::Program program = fig1_program();
  const auto report = fig1_report(program);
  viz::HtmlInputs inputs;
  inputs.title = "static only";
  inputs.program = &program;
  inputs.interference = &report;
  std::ostringstream os;
  viz::write_html(os, inputs);
  expect_anchors(os.str());
  expect_no_external_fetches(os.str());
  EXPECT_NE(os.str().find("\"journal\":null"), std::string::npos);
}

TEST(VizHtml, ScriptCloseSequenceIsDefused) {
  // An element string containing "</script>" must not terminate the data
  // block: the writer escapes the solidus ("<\/") inside the payload.
  obs::RunRecorder rec;
  rec.begin("test", "gamma", {{"[1, '</script><b>']", 1}});
  rec.finish("completed", {{"[1, '</script><b>']", 1}});
  const obs::Journal journal = rec.take();
  viz::HtmlInputs inputs;
  inputs.title = "evil";
  inputs.journal = &journal;
  std::ostringstream os;
  viz::write_html(os, inputs);
  const std::string html = os.str();
  const std::size_t data = html.find("<script id=\"gf-data\"");
  ASSERT_NE(data, std::string::npos);
  const std::size_t close = html.find("</script>", data);
  ASSERT_NE(close, std::string::npos);
  // The first real close tag arrives after the payload — the embedded
  // "</script>" text was rewritten to "<\/script>".
  EXPECT_NE(html.find("<\\/script>", data), std::string::npos);
  EXPECT_LT(html.find("<\\/script>", data), close);
}

}  // namespace
}  // namespace gammaflow
