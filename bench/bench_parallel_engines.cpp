// E8 (§II claims): both models "express parallelism naturally". Two
// hardware-independent shape checks plus engine timings:
//   - the dataflow wavefront profile (how many node instances are fireable
//     per step) widens with the workload's width;
//   - the Gamma concurrent-firings count does the same;
// and engine comparisons: sequential-oracle vs indexed vs parallel Gamma,
// interpreter vs parallel-PE dataflow, worker sweeps 1..8.
#include "bench_util.hpp"
#include "gammaflow/analysis/analysis.hpp"
#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"

using namespace gammaflow;

namespace {

gamma::Multiset random_ints(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  gamma::Multiset m;
  for (std::size_t i = 0; i < n; ++i) {
    m.add(gamma::Element{Value(static_cast<std::int64_t>(rng.bounded(1000000)))});
  }
  return m;
}

// --- conflict classes: paired conflict-free vs high-contention workloads ---

/// `chains` independent countdown populations: reaction i touches only label
/// "c<i>", so interference analysis splits the program into `chains` conflict
/// classes and the parallel engine can commit without revalidation.
gamma::Program chain_program(std::size_t chains) {
  std::ostringstream src;
  for (std::size_t i = 0; i < chains; ++i) {
    src << "R" << i << " = replace [x,'c" << i << "'] by [x - 1,'c" << i
        << "'] if x > 0\n";
  }
  return gamma::dsl::parse_program(src.str());
}

gamma::Multiset chain_init(std::size_t chains, std::size_t per_chain,
                           std::int64_t countdown) {
  gamma::Multiset m;
  for (std::size_t i = 0; i < chains; ++i) {
    for (std::size_t k = 0; k < per_chain; ++k) {
      m.add(gamma::Element::labeled(Value(countdown),
                                    "c" + std::to_string(i)));
    }
  }
  return m;
}

/// Every element shares one label: all reactions compete, one conflict
/// class, and the class optimization (correctly) never engages.
gamma::Program contended_program() {
  return gamma::dsl::parse_program(
      "R = replace [x,'h'], [y,'h'] by [x + y,'h']");
}

gamma::Multiset contended_init(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  gamma::Multiset m;
  for (std::size_t i = 0; i < n; ++i) {
    m.add(gamma::Element::labeled(
        Value(static_cast<std::int64_t>(rng.bounded(1000))), "h"));
  }
  return m;
}

gamma::RunResult run_instrumented(const gamma::Program& p,
                                  const gamma::Multiset& m,
                                  bool with_classes, unsigned workers,
                                  bool shard = true) {
  obs::Telemetry tel;
  gamma::RunOptions opts;
  opts.workers = workers;
  opts.telemetry = &tel;
  opts.shard = shard;
  if (with_classes) {
    opts.conflict_classes =
        analysis::analyze_interference(p, m).engine_classes();
  }
  return gamma::ParallelEngine().run(p, m, opts);
}

void verify_conflict_classes() {
  bench::header(
      "E11 — interference-derived conflict classes in the parallel engine",
      "claim: on class-partitionable workloads the sharded store commits "
      "with zero conflicts and no revalidation; on contended single-class "
      "workloads behavior is unchanged");
  const gamma::Program chains = chain_program(8);
  const gamma::Multiset chains_m = chain_init(8, 16, 24);
  const gamma::Program hot = contended_program();
  const gamma::Multiset hot_m = contended_init(512, 29);

  bench::Table table(
      {"workload", "classes", "store", "fires", "conflicts", "fast_commits"},
      14);
  struct Case {
    const char* name;
    const char* tag;
    const char* store;  // the path the engine actually takes
    const gamma::Program* p;
    const gamma::Multiset* m;
    bool with_classes;
    bool shard;
  };
  // `classes + no-shard` is the pre-sharding engine (optimistic global lock
  // with per-class fast commits); `classes + shard` is the per-shard-lock
  // path the classes now unlock. Contended (one class) cannot shard: both
  // store columns are the optimistic path, behavior unchanged.
  for (const Case c :
       {Case{"conflict-free", "baseline", "global", &chains, &chains_m, false,
             true},
        Case{"conflict-free", "classes_noshard", "global", &chains, &chains_m,
             true, false},
        Case{"conflict-free", "classes", "sharded", &chains, &chains_m, true,
             true},
        Case{"contended", "baseline", "global", &hot, &hot_m, false, true},
        Case{"contended", "classes", "global", &hot, &hot_m, true, true}}) {
    const auto r = run_instrumented(*c.p, *c.m, c.with_classes, 4, c.shard);
    const auto counter = [&](const char* name) {
      const auto it = r.metrics.counters.find(name);
      return it == r.metrics.counters.end() ? std::uint64_t{0} : it->second;
    };
    table.row(c.name, c.with_classes ? "on" : "off", c.store, r.steps,
              counter("gamma.commit_conflicts"),
              counter("gamma.class_fast_commits"));
    bench::metrics_json(
        std::cout, std::string("parallel_gamma_") + c.name + '_' + c.tag,
        r.metrics);
  }
}

void verify() {
  verify_conflict_classes();
  bench::header("E8 — natural parallelism of both models",
                "claim: exposed parallelism grows with workload width in "
                "both models (hardware-independent profiles)");
  bench::Table table({"loops", "df_maxwidth", "df_speedup", "gm_concurrent"});
  for (const std::size_t loops : {1u, 2u, 4u, 8u, 16u}) {
    const dataflow::Graph g = paper::multi_loop_graph(loops, 6, true);
    const auto profile = analysis::parallelism_profile(g);
    const auto conv = translate::dataflow_to_gamma(g);
    std::ostringstream speedup;
    speedup.precision(3);
    speedup << profile.ideal_speedup;
    table.row(loops, profile.max_width, speedup.str(),
              analysis::concurrent_firings(conv.program, conv.initial));
  }
  std::cout << "(this container has " << std::thread::hardware_concurrency()
            << " hardware thread(s); wall-clock speedups below reflect that, "
               "the profiles above do not)\n";

  // One instrumented parallel-engine run so the BENCH_*.json trajectory
  // carries engine-internal counters (match attempts, commit conflicts,
  // quiescence rounds), not just wall time. The timed benchmarks below run
  // with telemetry off, as users would.
  const gamma::Program p =
      gamma::dsl::parse_program("R = replace x, y by x + y");
  obs::Telemetry tel;
  gamma::RunOptions opts;
  opts.telemetry = &tel;
  const auto result =
      gamma::ParallelEngine().run(p, random_ints(1024, 13), opts);
  bench::metrics_json(std::cout, "parallel_gamma_sum_1024", result.metrics);
}

// --- Gamma engines on the sum workload ---

template <typename Engine>
void run_gamma_sum(benchmark::State& state, unsigned workers) {
  const gamma::Program p =
      gamma::dsl::parse_program("R = replace x, y by x + y");
  const gamma::Multiset m =
      random_ints(static_cast<std::size_t>(state.range(0)), 13);
  const Engine engine;
  gamma::RunOptions opts;
  opts.workers = workers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m, opts));
  }
}

void BM_GammaSum_SequentialOracle(benchmark::State& state) {
  run_gamma_sum<gamma::SequentialEngine>(state, 1);
}
BENCHMARK(BM_GammaSum_SequentialOracle)
    ->RangeMultiplier(4)
    ->Range(4, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_GammaSum_Indexed(benchmark::State& state) {
  run_gamma_sum<gamma::IndexedEngine>(state, 1);
}
BENCHMARK(BM_GammaSum_Indexed)
    ->RangeMultiplier(4)
    ->Range(4, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_GammaSum_Parallel1(benchmark::State& state) {
  run_gamma_sum<gamma::ParallelEngine>(state, 1);
}
BENCHMARK(BM_GammaSum_Parallel1)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_GammaSum_Parallel2(benchmark::State& state) {
  run_gamma_sum<gamma::ParallelEngine>(state, 2);
}
BENCHMARK(BM_GammaSum_Parallel2)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Unit(benchmark::kMicrosecond);

void BM_GammaSum_Parallel4(benchmark::State& state) {
  run_gamma_sum<gamma::ParallelEngine>(state, 4);
}
BENCHMARK(BM_GammaSum_Parallel4)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Unit(benchmark::kMicrosecond);

// --- conflict-class ablation: same workload, classes on/off ---
// The interference analysis runs in setup (it is a one-time compile step);
// the timed region is the engine run it accelerates.

void BM_GammaChains_Parallel(benchmark::State& state) {
  const bool with_classes = state.range(0) != 0;
  const auto chains = static_cast<std::size_t>(state.range(1));
  const gamma::Program p = chain_program(chains);
  const gamma::Multiset m = chain_init(chains, 8, 16);
  gamma::RunOptions opts;
  opts.workers = 4;
  if (with_classes) {
    opts.conflict_classes =
        analysis::analyze_interference(p, m).engine_classes();
  }
  const gamma::ParallelEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m, opts));
  }
  state.SetLabel(with_classes ? "classes" : "baseline");
}
BENCHMARK(BM_GammaChains_Parallel)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMicrosecond);

// --- sharded-store ablation: same classes, per-shard locks vs global lock ---
// Classes are on in both arms; the only difference is RunOptions::shard,
// i.e. whether the plan's per-shard ownership replaces the optimistic
// shared/exclusive global lock.
void BM_GammaChains_ShardAblation(benchmark::State& state) {
  const bool shard = state.range(0) != 0;
  const auto chains = static_cast<std::size_t>(state.range(1));
  const gamma::Program p = chain_program(chains);
  const gamma::Multiset m = chain_init(chains, 8, 16);
  gamma::RunOptions opts;
  opts.workers = 4;
  opts.shard = shard;
  opts.conflict_classes =
      analysis::analyze_interference(p, m).engine_classes();
  const gamma::ParallelEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m, opts));
  }
  state.SetLabel(shard ? "sharded" : "global-lock");
}
BENCHMARK(BM_GammaChains_ShardAblation)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMicrosecond);

// --- dataflow engines on the multi-loop workload ---

void BM_DataflowLoops_Interpreter(benchmark::State& state) {
  const dataflow::Graph g = paper::multi_loop_graph(
      static_cast<std::size_t>(state.range(0)), 16, true);
  const dataflow::Interpreter engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(g));
  }
}
BENCHMARK(BM_DataflowLoops_Interpreter)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMicrosecond);

void BM_DataflowLoops_ParallelPEs(benchmark::State& state) {
  const dataflow::Graph g = paper::multi_loop_graph(4, 16, true);
  const dataflow::ParallelEngine engine;
  dataflow::DfRunOptions opts;
  opts.workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(g, opts));
  }
  state.SetLabel(std::to_string(state.range(0)) + " workers");
}
BENCHMARK(BM_DataflowLoops_ParallelPEs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// --- indexed vs sequential ablation on a label-partitioned workload ---
// (DESIGN.md §5.2: index-guided matching vs Eq. (1) literal enumeration)
void BM_Ablation_IndexedVsSequential(benchmark::State& state) {
  const gamma::Program p = gamma::dsl::parse_program(R"(
    Ra = replace [x, 'a'], [y, 'a'] by [x + y, 'a']
    Rb = replace [x, 'b'], [y, 'b'] by [x + y, 'b']
    Rc = replace [x, 'c'], [y, 'c'] by [x + y, 'c']
  )");
  gamma::Multiset m;
  Rng rng(21);
  for (std::int64_t i = 0; i < state.range(1); ++i) {
    const char* label = i % 3 == 0 ? "a" : i % 3 == 1 ? "b" : "c";
    m.add(gamma::Element::labeled(
        Value(static_cast<std::int64_t>(rng.bounded(100))), label));
  }
  if (state.range(0) == 0) {
    const gamma::SequentialEngine engine;
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(p, m));
    state.SetLabel("sequential-oracle");
  } else {
    const gamma::IndexedEngine engine;
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(p, m));
    state.SetLabel("indexed");
  }
}
BENCHMARK(BM_Ablation_IndexedVsSequential)
    ->Args({0, 30})
    ->Args({1, 30})
    ->Args({0, 90})
    ->Args({1, 90})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
