// Round-trip explorer: generate random dataflow graphs, push them through
// Algorithm 1 (graph -> Gamma), the reconstruction pass (Gamma -> graph),
// and the reduction/expansion passes, verifying observables at every hop.
// Prints one worked example in full, then a sweep summary.
//
// Usage: roundtrip_explorer [graphs] [leaves] [seed]   (defaults 20 8 1)
#include <cstdlib>
#include <iostream>

#include "gammaflow/analysis/optimize.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/equivalence.hpp"
#include "gammaflow/translate/gamma_to_df.hpp"
#include "gammaflow/translate/reduce.hpp"

using namespace gammaflow;

namespace {

/// The §III-A3 reduction, as `gammaflow fuse` runs it.
gamma::Program fuse(const gamma::Program& program,
                    const gamma::Multiset& initial) {
  return analysis::optimize_program(program, initial,
                                    analysis::reduction_options())
      .program;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t graphs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20;
  const std::size_t leaves = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  const std::uint64_t seed0 = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  // ---- one worked example, printed in full --------------------------------
  const dataflow::Graph sample = paper::random_expression_graph(4, seed0);
  std::cout << "== sample graph ==\n" << sample << '\n';

  const auto conv = translate::dataflow_to_gamma(sample);
  std::cout << "== Algorithm 1 ==\n" << conv.program << "\n\nM = "
            << conv.initial << "\n\n";

  const auto fused = fuse(conv.program, conv.initial);
  std::cout << "== fused (SIII-A3 reduction) ==\n" << fused << "\n\n";

  const auto expanded = translate::expand_program(fused);
  std::cout << "== re-expanded ==\n" << expanded << "\n\n";

  const dataflow::Graph rebuilt =
      translate::reconstruct_graph(conv.program, conv.initial);
  std::cout << "== reconstructed graph (future-work pass) ==\n"
            << rebuilt << '\n';

  // ---- sweep ---------------------------------------------------------------
  const dataflow::Interpreter interp;
  const gamma::IndexedEngine engine;
  std::size_t ok = 0;
  for (std::size_t g = 0; g < graphs; ++g) {
    const std::uint64_t seed = seed0 + g;
    const dataflow::Graph graph = paper::random_expression_graph(leaves, seed);
    const Value expected = interp.run(graph).single_output("m");

    const auto c = translate::dataflow_to_gamma(graph);
    bool all_ok = true;
    auto check = [&](const char* hop, const gamma::Program& p) {
      const auto run = engine.run(p, c.initial);
      const auto m = run.final_multiset.with_label("m");
      const bool good = m.size() == 1 && m[0].value() == expected;
      if (!good) {
        std::cout << "  seed " << seed << " MISMATCH at " << hop << '\n';
        all_ok = false;
      }
    };
    check("convert", c.program);
    check("fuse", fuse(c.program, c.initial));
    check("fuse+expand", translate::expand_program(
                             fuse(c.program, c.initial)));

    const dataflow::Graph back =
        translate::reconstruct_graph(c.program, c.initial);
    if (interp.run(back).single_output("m") != expected) {
      std::cout << "  seed " << seed << " MISMATCH at reconstruct\n";
      all_ok = false;
    }
    ok += all_ok;
  }
  std::cout << "sweep: " << ok << '/' << graphs << " graphs ("
            << leaves << " leaves each) survived every hop with identical"
            << " observables\n";
  return ok == graphs ? 0 : 1;
}
