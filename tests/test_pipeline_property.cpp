// Whole-pipeline property tests: random imperative programs through every
// stage — compile, optimize, both dataflow engines, Algorithm 1, all three
// Gamma engines, the distributed cluster — must agree on every observable.
// Plus strict replay of engine runs' recorded fires.
#include <gtest/gtest.h>

#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/dataflow/optimize.hpp"
#include "gammaflow/distrib/cluster.hpp"
#include "gammaflow/frontend/compile.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/equivalence.hpp"

namespace gammaflow {
namespace {

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, AllStagesAgreeOnObservables) {
  const std::uint64_t seed = GetParam();
  const std::string source = paper::random_source_program(seed);
  SCOPED_TRACE("source:\n" + source);

  const dataflow::Graph g = frontend::compile_source(source);
  const auto reference = dataflow::Interpreter().run(g);

  // Parallel dataflow engine.
  dataflow::DfRunOptions dopts;
  dopts.workers = 3;
  const auto par = dataflow::ParallelEngine().run(g, dopts);
  for (const auto& [name, tokens] : reference.outputs) {
    EXPECT_EQ(par.output_values(name), reference.output_values(name)) << name;
  }

  // Optimizer.
  const auto opt = dataflow::optimize(g);
  const auto opt_run = dataflow::Interpreter().run(opt.graph);
  for (const auto& [name, tokens] : reference.outputs) {
    EXPECT_EQ(opt_run.output_values(name), reference.output_values(name))
        << name;
  }

  // Memoized run.
  dataflow::DfRunOptions mopts;
  mopts.memoize = true;
  const auto memo = dataflow::Interpreter().run(g, mopts);
  for (const auto& [name, tokens] : reference.outputs) {
    EXPECT_EQ(memo.output_values(name), reference.output_values(name)) << name;
  }

  // Algorithm 1 + every Gamma engine.
  const auto rep = translate::check_equivalence_seeds(g, seed, 3);
  EXPECT_TRUE(rep.equivalent) << rep.detail;

  // Distributed cluster on the converted program.
  const auto conv = translate::dataflow_to_gamma(g);
  distrib::ClusterOptions copts;
  copts.nodes = 3;
  copts.seed = seed;
  const auto cluster =
      distrib::run_distributed(conv.program, conv.initial, copts);
  for (const auto& [output, labels] : conv.output_labels) {
    for (const std::string& label : labels) {
      EXPECT_EQ(translate::observed_elements(cluster.final_multiset, label),
                translate::observed_elements(rep.gamma_result.final_multiset,
                                             label))
          << output << '/' << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{25}));

TEST(PipelineProperty, LooplessProgramsSweep) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const std::string source = paper::random_source_program(seed, false);
    const dataflow::Graph g = frontend::compile_source(source);
    const auto rep = translate::check_equivalence_seeds(g, seed, 2);
    EXPECT_TRUE(rep.equivalent) << source << "\n" << rep.detail;
  }
}

// ---- fire replay validation ----

/// Strict replay of recorded fires over `initial`: throws EngineError at the
/// first consumed element that is not present. obs::replay_fires skips
/// absent elements, so it cannot witness an invalid schedule; this can.
obs::StoreCounts strict_replay(const obs::StoreCounts& initial,
                               const std::vector<obs::FireRecord>& fires) {
  obs::StoreCounts store = initial;
  for (const obs::FireRecord& fire : fires) {
    for (const std::string& e : fire.consumed) {
      const auto it = store.find(e);
      if (it == store.end()) {
        throw EngineError("replay: " + fire.reaction + " consumes absent " + e);
      }
      if (--it->second == 0) store.erase(it);
    }
    for (const std::string& e : fire.produced) ++store[e];
  }
  return store;
}

/// Runs `engine` with an in-memory recorder and returns the journal.
template <typename Engine>
obs::Journal recorded_run(const gamma::Program& p, const gamma::Multiset& m,
                          gamma::RunOptions opts) {
  obs::RunRecorder recorder;
  opts.record = &recorder;
  (void)Engine().run(p, m, opts);
  return recorder.take();
}

/// True when the journal's fires replay strictly onto its final store.
bool fires_reach_final(const obs::Journal& j) {
  return j.fires_dropped == 0 &&
         strict_replay(j.initial, j.fires) == j.final_store;
}

TEST(Replay, SequentialEngineTraceReplays) {
  const auto conv =
      translate::dataflow_to_gamma(paper::fig2_graph(5, 3, 10, true));
  const obs::Journal j = recorded_run<gamma::SequentialEngine>(
      conv.program, conv.initial, {});
  EXPECT_TRUE(fires_reach_final(j));
}

TEST(Replay, IndexedEngineTraceReplays) {
  const auto p = gamma::dsl::parse_program(
      "R = replace x, y by [x - y], [y] where x > y");
  const gamma::Multiset m{gamma::Element{Value(12)}, gamma::Element{Value(18)},
                          gamma::Element{Value(30)}};
  gamma::RunOptions opts;
  obs::RunRecorder recorder;
  opts.record = &recorder;
  const auto run = gamma::IndexedEngine().run(p, m, opts);
  const obs::Journal j = recorder.take();
  EXPECT_TRUE(fires_reach_final(j));
  EXPECT_EQ(strict_replay(j.initial, j.fires),
            runtime::store_counts(run.final_multiset));
}

TEST(Replay, ParallelEngineTraceIsLinearizable) {
  // The recorded commit order must be a valid sequential schedule — the
  // linearizability witness for the optimistic engine.
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  gamma::Multiset m;
  for (std::int64_t i = 1; i <= 200; ++i) m.add(gamma::Element{Value(i)});
  gamma::RunOptions opts;
  opts.workers = 4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    opts.seed = seed;
    const obs::Journal j = recorded_run<gamma::ParallelEngine>(p, m, opts);
    EXPECT_TRUE(fires_reach_final(j)) << "seed " << seed;
  }
}

TEST(Replay, CorruptTraceIsRejected) {
  const auto p = gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m{gamma::Element{Value(1)}, gamma::Element{Value(2)}};
  obs::Journal j = recorded_run<gamma::IndexedEngine>(p, m, {});
  ASSERT_EQ(j.fires.size(), 1u);
  // An element that never existed.
  j.fires[0].consumed[0] = gamma::Element{Value(99)}.to_string();
  EXPECT_THROW((void)strict_replay(j.initial, j.fires), EngineError);
}

TEST(Replay, EmptyTraceIsIdentity) {
  const obs::StoreCounts m =
      runtime::store_counts(gamma::Multiset{gamma::Element{Value(7)}});
  EXPECT_EQ(strict_replay(m, {}), m);
}

}  // namespace
}  // namespace gammaflow
