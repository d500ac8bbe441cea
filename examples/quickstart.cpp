// Quickstart: the paper's Fig. 1 end to end in ~60 lines of API.
//
//   1. build the dataflow graph for  m = (x + y) - (k * j)
//   2. run it on the tagged-token interpreter
//   3. convert it to a Gamma program with Algorithm 1
//   4. run the Gamma program on the multiset-rewriting engine
//   5. check both observables agree (the equivalence claim)
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/translate/equivalence.hpp"
#include "gammaflow/viz/viz.hpp"

using namespace gammaflow;

int main() {
  // -- 1. the Fig. 1 graph ------------------------------------------------
  dataflow::GraphBuilder b;
  const auto x = b.constant(Value(1), "x");
  const auto y = b.constant(Value(5), "y");
  const auto k = b.constant(Value(3), "k");
  const auto j = b.constant(Value(2), "j");

  const auto r1 = b.arith(expr::BinOp::Add, "R1");
  const auto r2 = b.arith(expr::BinOp::Mul, "R2");
  const auto r3 = b.arith(expr::BinOp::Sub, "R3");
  b.connect(x, r1, 0, "A1");
  b.connect(y, r1, 1, "B1");
  b.connect(k, r2, 0, "C1");
  b.connect(j, r2, 1, "D1");
  b.connect(dataflow::GraphBuilder::out(r1), r3, 0, "B2");
  b.connect(dataflow::GraphBuilder::out(r2), r3, 1, "C2");
  b.connect(dataflow::GraphBuilder::out(r3), b.output("m"), 0, "m");
  const dataflow::Graph graph = std::move(b).build();

  std::cout << "== dataflow graph ==\n" << graph << '\n';

  // -- 2. run it ------------------------------------------------------------
  const dataflow::Interpreter interp;
  const auto df = interp.run(graph);
  std::cout << "dataflow result: m = " << df.single_output("m") << "  ("
            << df.fires << " firings)\n\n";

  // -- 3. Algorithm 1 ------------------------------------------------------
  const translate::GammaConversion conv = translate::dataflow_to_gamma(graph);
  std::cout << "== converted Gamma program (Algorithm 1) ==\n"
            << conv.program << "\n\n";
  std::cout << "initial multiset M = " << conv.initial << "\n\n";

  // -- 4. run the Gamma program --------------------------------------------
  const gamma::IndexedEngine engine;
  const auto gm = engine.run(conv.program, conv.initial);
  std::cout << "gamma final multiset = " << gm.final_multiset << "  ("
            << gm.steps << " reactions fired)\n\n";

  // -- 5. equivalence -------------------------------------------------------
  const auto report = translate::check_equivalence_seeds(graph, 1, 10);
  std::cout << "equivalent across 10 seeds: "
            << (report.equivalent ? "YES" : "NO") << '\n';
  if (!report.equivalent) {
    std::cout << report.detail << '\n';
    return 1;
  }

  std::cout << "\nGraphviz (pipe into `dot -Tpng`):\n"
            << viz::to_dot(graph, "fig1");
  return 0;
}
