// Serialization properties over generated graphs: text round-trips are
// exact (the same text, bit-identical constants), parsed graphs execute
// identically, DOT output is well-formed.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "gammaflow/common/rng.hpp"
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

/// Every node of `h` carries the constant of the same node of `g`, of the
/// same kind and, for a real, with the same bits (so -0.0, NaN and the last
/// digit of a double all count).
void expect_same_constants(const Graph& g, const Graph& h) {
  ASSERT_EQ(h.node_count(), g.node_count());
  for (NodeId id = 0; id < g.node_count(); ++id) {
    const Value& want = g.node(id).constant;
    const Value& got = h.node(id).constant;
    ASSERT_EQ(got.kind(), want.kind()) << "node " << id;
    if (want.is_real()) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.as_real()),
                std::bit_cast<std::uint64_t>(want.as_real()))
          << "node " << id << ": " << want.as_real();
    } else {
      EXPECT_EQ(got, want) << "node " << id;
    }
  }
}

/// A graph of real constants and real immediates: each of the seed's random
/// doubles (any bit pattern; a NaN drawn becomes the quiet NaN) and each
/// awkward fixed one feeds an add-immediate node and an output.
Graph real_constant_graph(std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> reals = {
      0.1, 2.0, -0.0, 1e21, 6.283185307179586, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  Rng rng(seed);
  for (int i = 0; i < 32; ++i) {
    const double d = std::bit_cast<double>(rng());
    reals.push_back(std::isnan(d) ? std::numeric_limits<double>::quiet_NaN()
                                  : d);
  }
  GraphBuilder b;
  for (std::size_t i = 0; i + 1 < reals.size(); i += 2) {
    const auto sum = b.arith_imm(expr::BinOp::Add, b.constant(Value(reals[i])),
                                 Value(reals[i + 1]));
    b.output(sum, std::string("o").append(std::to_string(i)));
  }
  return std::move(b).build();
}

class SerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeProperty, RandomExpressionGraphsRoundTripExactly) {
  const Graph g = paper::random_expression_graph(16, GetParam());
  const std::string text = to_text(g);
  const Graph h = parse_text(text);
  EXPECT_EQ(to_text(h), text);
  expect_same_constants(g, h);
  EXPECT_EQ(Interpreter().run(h).single_output("m"),
            Interpreter().run(g).single_output("m"));
}

TEST_P(SerializeProperty, RealConstantsRoundTripBitForBit) {
  const Graph g = real_constant_graph(GetParam());
  const std::string text = to_text(g);
  const Graph h = parse_text(text);
  EXPECT_EQ(to_text(h), text);
  expect_same_constants(g, h);
}

TEST_P(SerializeProperty, CompiledProgramsRoundTripExactly) {
  const std::string source = paper::random_source_program(GetParam());
  const Graph g = frontend::compile_source(source);
  const Graph h = parse_text(to_text(g));
  EXPECT_EQ(to_text(h), to_text(g)) << source;
  expect_same_constants(g, h);
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
