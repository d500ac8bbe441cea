// Serialization properties over generated graphs: text round-trips are
// exact, parsed graphs execute identically, DOT output is well-formed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/serialize.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/viz/viz.hpp"

namespace gammaflow::dataflow {
namespace {

/// The graph's text form, as write_text prints it.
std::string to_text(const Graph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

class SerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeProperty, RandomExpressionGraphsRoundTripExactly) {
  const Graph g = paper::random_expression_graph(16, GetParam());
  const std::string text = to_text(g);
  const Graph h = parse_text(text);
  EXPECT_EQ(to_text(h), text);
  EXPECT_EQ(Interpreter().run(h).single_output("m"),
            Interpreter().run(g).single_output("m"));
}

TEST_P(SerializeProperty, CompiledProgramsRoundTripExactly) {
  const std::string source = paper::random_source_program(GetParam());
  const Graph g = frontend::compile_source(source);
  const Graph h = parse_text(to_text(g));
  EXPECT_EQ(to_text(h), to_text(g)) << source;
  const auto a = Interpreter().run(g);
  const auto b = Interpreter().run(h);
  for (const auto& [name, tokens] : a.outputs) {
    EXPECT_EQ(b.output_values(name), a.output_values(name)) << name;
  }
}

TEST_P(SerializeProperty, DotOutputIsBalancedAndComplete) {
  const Graph g = paper::random_expression_graph(8, GetParam());
  const std::string dot = viz::to_dot(g);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
  // one node line per node, one edge line per edge
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(dot.begin(), dot.end(), '[')),
            g.node_count() + g.edge_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty,
                         ::testing::Values(3, 7, 21, 77, 301));

TEST(SerializeEdgeCases, EmptyGraphRoundTrips) {
  GraphBuilder b;
  const Graph g = std::move(b).build();
  const Graph h = parse_text(to_text(g));
  EXPECT_EQ(h.node_count(), 0u);
  EXPECT_EQ(h.edge_count(), 0u);
}

TEST(SerializeEdgeCases, NamesWithSpacesSurvive) {
  GraphBuilder b;
  b.output(b.constant(Value("hello world"), "the input"), "an output");
  const Graph h = parse_text(to_text(std::move(b).build()));
  EXPECT_TRUE(h.find("the input").has_value());
  EXPECT_EQ(h.node(*h.find("the input")).constant, Value("hello world"));
}

TEST(SerializeEdgeCases, NegativeAndRealConstants) {
  GraphBuilder b;
  b.output(b.constant(Value(-42), "ni"), "o1");
  b.output(b.constant(Value(-2.5), "nr"), "o2");
  const Graph h = parse_text(to_text(std::move(b).build()));
  EXPECT_EQ(h.node(*h.find("ni")).constant, Value(-42));
  EXPECT_EQ(h.node(*h.find("nr")).constant, Value(-2.5));
}

}  // namespace
}  // namespace gammaflow::dataflow
