// The complete pipeline the paper implies but never builds: start from the
// von Neumann source code of §III-A1, end in executable chemistry.
//
//   C-like source ──frontend──► dynamic dataflow graph (Fig. 2 pattern)
//        │                             │
//        │                       Algorithm 1
//        ▼                             ▼
//   interpreter result    ==    Gamma program on any engine
//                                      │
//                                 distributed cluster (SIV)
//
// Usage: source_pipeline [file.src]   (defaults to the paper's loop example)
#include <fstream>
#include <iostream>
#include <sstream>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

using namespace gammaflow;

int main(int argc, char** argv) {
  std::string source;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << '\n';
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  } else {
    // The paper's §III-A1 example 2 (with its evident i<0 typo corrected
    // to i>0, as the figure's "comparison with zero" implies).
    source = R"(
      int y = 5;
      int z = 4;
      int x = 100;
      for (i = z; i > 0; i--)
        x = x + y;
      output x;
    )";
  }
  std::cout << "== source ==\n" << source << '\n';

  // 1. compile
  const dataflow::Graph graph = frontend::compile_source(source);
  std::cout << "== compiled dataflow graph ==\n" << graph << '\n';

  // 2. run as dataflow
  const auto df = dataflow::Interpreter().run(graph);
  std::cout << "== dataflow execution ==\n";
  for (const auto& [name, tokens] : df.outputs) {
    std::cout << name << " =";
    for (const Value& v : df.output_values(name)) std::cout << ' ' << v;
    std::cout << '\n';
  }
  std::cout << df.fires << " firings over " << df.wavefronts.size()
            << " wavefronts\n\n";

  // 3. Algorithm 1
  const auto conv = translate::dataflow_to_gamma(graph);
  std::cout << "== Gamma program (Algorithm 1, "
            << conv.program.reaction_count() << " reactions) ==\n"
            << conv.program << "\n\nM = " << conv.initial << "\n\n";

  // 4. run as chemistry, centralized and distributed
  const auto gm = gamma::IndexedEngine().run(conv.program, conv.initial);
  std::cout << "== centralized rewriting ==\nfinal multiset (observables): ";
  for (const auto& [output, labels] : conv.output_labels) {
    for (const std::string& label : labels) {
      for (const auto& e : gm.final_multiset.with_label(label)) {
        std::cout << output << " = " << e.value() << "  ";
      }
    }
  }
  std::cout << '(' << gm.steps << " reactions)\n\n";

  distrib::ClusterOptions copts;
  copts.nodes = 4;
  const auto cluster =
      distrib::run_distributed(conv.program, conv.initial, copts);
  std::cout << "== distributed rewriting (4 nodes) ==\nobservables: ";
  for (const auto& [output, labels] : conv.output_labels) {
    for (const std::string& label : labels) {
      for (const auto& e : cluster.final_multiset.with_label(label)) {
        std::cout << output << " = " << e.value() << "  ";
      }
    }
  }
  std::cout << '(' << cluster.rounds << " rounds, " << cluster.messages
            << " messages)\n";
  return 0;
}
