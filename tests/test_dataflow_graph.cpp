// Graph structure: builder, validation, lookup, DOT export, text
// serialization round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "gammaflow/dataflow/graph.hpp"
#include "gammaflow/dataflow/serialize.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/viz/viz.hpp"

namespace gammaflow::dataflow {
namespace {

using expr::BinOp;

/// The graph's text form, as write_text prints it.
std::string to_text(const Graph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

TEST(GraphBuilder, Fig1Structure) {
  const Graph g = paper::fig1_graph();
  EXPECT_EQ(g.node_count(), 8u);  // 4 const + 3 arith + 1 output
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_EQ(g.roots().size(), 4u);
  EXPECT_EQ(g.outputs().size(), 1u);
  ASSERT_TRUE(g.find("R3").has_value());
  EXPECT_EQ(g.node(*g.find("R3")).op, BinOp::Sub);
  const auto b2_at =
      std::find_if(g.edges().begin(), g.edges().end(),
                   [](const Edge& e) { return e.label == "B2"; });
  ASSERT_NE(b2_at, g.edges().end());
  const Edge& b2 = *b2_at;
  EXPECT_EQ(b2.src, *g.find("R1"));
  EXPECT_EQ(b2.dst, *g.find("R3"));
}

TEST(GraphBuilder, AutoLabelsAreUnique) {
  GraphBuilder b;
  auto c1 = b.constant(Value(1));
  auto c2 = b.constant(Value(2));
  auto sum = b.arith(BinOp::Add, c1, c2);
  b.output(sum, "out");
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 3u);
  std::set<std::string> labels;
  for (const Edge& e : g.edges()) labels.insert(e.label);
  EXPECT_EQ(labels.size(), 3u);
}

TEST(GraphBuilder, RejectsWrongOperatorClass) {
  GraphBuilder b;
  EXPECT_THROW((void)b.arith(BinOp::Lt), GraphError);
  EXPECT_THROW((void)b.cmp(BinOp::Add), GraphError);
}

TEST(GraphBuilder, OutputRequiresName) {
  GraphBuilder b;
  EXPECT_THROW((void)b.output(std::string{}), GraphError);
}

TEST(GraphBuilder, ConnectValidatesEndpoints) {
  GraphBuilder b;
  auto c = b.constant(Value(1));
  const NodeId out = b.output("o");
  EXPECT_THROW((void)b.connect(c, 99, 0), GraphError);         // missing node
  EXPECT_THROW((void)b.connect(c, out, 5), GraphError);        // bad port
  EXPECT_THROW((void)b.connect({99, 0}, out, 0), GraphError);  // missing src
}

TEST(GraphValidate, UnconnectedInputPortFails) {
  GraphBuilder b;
  auto c = b.constant(Value(1));
  const NodeId add = b.arith(BinOp::Add);
  b.connect(c, add, 0);  // port 1 left dangling
  EXPECT_THROW((void)std::move(b).build(), GraphError);
}

TEST(GraphValidate, DuplicateEdgeLabelFails) {
  GraphBuilder b;
  auto c1 = b.constant(Value(1));
  auto c2 = b.constant(Value(2));
  const NodeId add = b.arith(BinOp::Add);
  b.connect(c1, add, 0, "dup");
  b.connect(c2, add, 1, "dup");
  const NodeId out = b.output("o");
  b.connect(GraphBuilder::out(add), out, 0);
  EXPECT_THROW((void)std::move(b).build(), GraphError);
}

TEST(GraphValidate, MergedInputPortIsLegal) {
  // Fig. 2 pattern: two producers feed one inctag input (A1 + loopback).
  GraphBuilder b;
  auto c1 = b.constant(Value(1));
  auto c2 = b.constant(Value(2));
  const NodeId inc = b.inctag();
  b.connect(c1, inc, 0, "A1");
  b.connect(c2, inc, 0, "A11");
  EXPECT_NO_THROW((void)std::move(b).build());
}

TEST(GraphBuilder, ImmediateNodesHaveArityOne) {
  GraphBuilder b;
  auto c = b.constant(Value(5));
  auto dec = b.arith_imm(BinOp::Sub, c, Value(std::int64_t{1}), "R18");
  b.output(dec, "o");
  const Graph g = std::move(b).build();
  const NodeId n = *g.find("R18");
  EXPECT_TRUE(g.node(n).has_immediate);
  EXPECT_EQ(input_arity(g.node(n)), 1u);
  EXPECT_EQ(input_arity(g.node(n).kind), 2u);  // kind default unchanged
}

TEST(GraphQueries, OutEdgesPerPort) {
  const Graph g = paper::fig2_graph(3, 5, 0, true);
  const NodeId r14 = *g.find("R14");
  EXPECT_EQ(g.out_edges(r14, 0).size(), 3u);  // B14, B15, B16
  const NodeId r17 = *g.find("R17");
  EXPECT_EQ(g.out_edges(r17, kSteerTrue).size(), 1u);
  EXPECT_EQ(g.out_edges(r17, kSteerFalse).size(), 1u);  // x_final
  const NodeId r15 = *g.find("R15");
  EXPECT_EQ(g.out_edges(r15, kSteerFalse).size(), 0u);  // discard
  EXPECT_TRUE(g.out_edges(999, 0).empty());
}

TEST(GraphQueries, FindIsAmbiguityAware) {
  GraphBuilder b;
  b.constant(Value(1), "dup");
  b.constant(Value(2), "dup");
  b.constant(Value(2), "unique");
  const Graph g = std::move(b).build();
  EXPECT_FALSE(g.find("dup").has_value());
  EXPECT_TRUE(g.find("unique").has_value());
  EXPECT_FALSE(g.find("missing").has_value());
}

TEST(Dot, ContainsShapesAndLabels) {
  const std::string dot = viz::to_dot(paper::fig2_graph(3, 5, 0, true), "fig2");
  EXPECT_NE(dot.find("digraph \"fig2\""), std::string::npos);
  EXPECT_NE(dot.find("shape=triangle"), std::string::npos);  // steer
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);   // inctag
  EXPECT_NE(dot.find("shape=square"), std::string::npos);    // const
  EXPECT_NE(dot.find("taillabel=\"T\""), std::string::npos);
  EXPECT_NE(dot.find("taillabel=\"F\""), std::string::npos);
  EXPECT_NE(dot.find("B12"), std::string::npos);
}

TEST(Serialize, Fig1RoundTrip) {
  const Graph g = paper::fig1_graph();
  const std::string text = to_text(g);
  const Graph h = parse_text(text);
  EXPECT_EQ(to_text(h), text);
  EXPECT_EQ(h.node_count(), g.node_count());
  EXPECT_EQ(h.edge_count(), g.edge_count());
}

TEST(Serialize, Fig2RoundTripPreservesImmediates) {
  const Graph g = paper::fig2_graph(4, 5, 100, true);
  const Graph h = parse_text(to_text(g));
  EXPECT_EQ(to_text(h), to_text(g));
  const NodeId r14 = *h.find("R14");
  EXPECT_TRUE(h.node(r14).has_immediate);
  EXPECT_EQ(h.node(r14).constant, Value(0));
}

TEST(Serialize, PreservesValueKinds) {
  GraphBuilder b;
  b.output(b.constant(Value(3.5), "r"), "o1");
  b.output(b.constant(Value("5"), "s"), "o2");
  b.output(b.constant(Value(5), "i"), "o3");
  b.output(b.constant(Value(true), "t"), "o4");
  const Graph g = std::move(b).build();
  const Graph h = parse_text(to_text(g));
  EXPECT_EQ(h.node(*h.find("r")).constant, Value(3.5));
  EXPECT_EQ(h.node(*h.find("s")).constant, Value("5"));  // quoted string
  EXPECT_EQ(h.node(*h.find("i")).constant, Value(5));    // bare int
  EXPECT_EQ(h.node(*h.find("t")).constant, Value(true));
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_text(""), ParseError);
  EXPECT_THROW((void)parse_text("bogus v1\n"), ParseError);
  EXPECT_THROW((void)parse_text("dataflow v1\nnode\n"), ParseError);
  EXPECT_THROW((void)parse_text("dataflow v1\nnode kind=marble\n"), ParseError);
  EXPECT_THROW((void)parse_text("dataflow v1\nwidget kind=const\n"), ParseError);
  EXPECT_THROW(
      (void)parse_text("dataflow v1\nnode kind=const value=1\nedge src=0\n"),
      ParseError);
}

TEST(Serialize, NumbersDecodeAsTheExprLexerDecodesThem) {
  // Reals out of double's range used to escape as std::out_of_range.
  for (const char* line : {"node kind=const value=1e400",
                           "node kind=const value=1\n"
                           "node kind=arith op=+ imm=-1e-400"}) {
    try {
      (void)parse_text(std::string("dataflow v1\n") + line + "\n");
      ADD_FAILURE() << line;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("real literal out of range"),
                std::string::npos)
          << e.what();
      EXPECT_GE(e.line(), 2);
    }
  }
  EXPECT_THROW((void)parse_text("dataflow v1\nnode kind=const value=1.5e\n"),
               ParseError);
  // The '-' folds into the value, so the int64 minimum still decodes.
  const Graph g = parse_text(
      "dataflow v1\nnode kind=const value=-9223372036854775808 name='m'\n");
  EXPECT_EQ(g.node(*g.find("m")).constant,
            Value(std::numeric_limits<std::int64_t>::min()));
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const Graph g = parse_text(R"(
dataflow v1
# a constant flowing to an output
node kind=const value=7 name='c'

node kind=output name='o'
edge src=0 sport=0 dst=1 dport=0 label='e'
)");
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
}

}  // namespace
}  // namespace gammaflow::dataflow
