// E8 (§II claims): both models "express parallelism naturally". Two
// hardware-independent shape checks plus engine timings:
//   - the dataflow wavefront profile (how many node instances are fireable
//     per step) widens with the workload's width;
//   - the Gamma concurrent-firings count does the same;
// then the wall-clock side: every Gamma row timed on the indexed engine and
// on the parallel engine at 1, 2 and 4 workers in this one process, with
// each parallel time's ratio to the indexed one; and the timed engine
// comparisons: sequential-oracle vs indexed vs parallel Gamma, interpreter
// vs parallel-PE dataflow, worker sweeps.
#include <algorithm>
#include <array>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gammaflow/analysis/analysis.hpp"
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

/// `chains` independent countdown populations: reaction i touches only label
/// "c<i>".
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
      m.add(gamma::Element::labeled(
          Value(countdown), std::string("c").append(std::to_string(i))));
    }
  }
  return m;
}

/// 4096 `[v, k]` over 64 labels: `replace [x, k], [y, k]` joins on k, so
/// every fire probes a (field, bound value) bucket, and the fixpoint holds
/// one `[sum, k]` per label.
struct KeyedCase {
  gamma::Program program;
  gamma::Multiset initial;
  gamma::Multiset sums;
};

const KeyedCase& keyed_case() {
  static const KeyedCase c = [] {
    KeyedCase kc;
    kc.program =
        gamma::dsl::parse_program("Rkey = replace [x, k], [y, k] by [x + y, k]");
    Rng rng(17);
    std::vector<std::int64_t> sums(64, 0);
    for (std::size_t i = 0; i < 4096; ++i) {
      const auto v = static_cast<std::int64_t>(rng.bounded(1000));
      sums[i % 64] += v;
      kc.initial.add(gamma::Element{
          Value(v), Value(std::string("k").append(std::to_string(i % 64)))});
    }
    for (std::size_t k = 0; k < sums.size(); ++k) {
      kc.sums.add(gamma::Element{
          Value(sums[k]), Value(std::string("k").append(std::to_string(k)))});
    }
    return kc;
  }();
  return c;
}

/// One Gamma workload of the wall-clock table.
struct GammaRow {
  std::string name;
  gamma::Program program;
  gamma::Multiset initial;
};

std::vector<GammaRow> gamma_rows() {
  std::vector<GammaRow> rows;
  const gamma::Program sum = gamma::dsl::parse_program("R = replace x, y by x + y");
  rows.push_back({"sum 1024", sum, random_ints(1024, 13)});
  rows.push_back({"sum 16384", sum, random_ints(16384, 13)});
  rows.push_back({"keyed 4096/64", keyed_case().program, keyed_case().initial});
  rows.push_back({"chains 8x8", chain_program(8), chain_init(8, 8, 16)});
  gamma::Multiset sieve;
  for (std::int64_t i = 2; i <= 999; ++i) sieve.add(gamma::Element{Value(i)});
  rows.push_back({"sieve 2..999",
                  gamma::dsl::parse_program(
                      "R = replace x, y by x where (y % x == 0) and (x > 1)"),
                  std::move(sieve)});
  rows.push_back({"min 4096",
                  gamma::dsl::parse_program("R = replace x, y by x where x < y"),
                  random_ints(4096, 13)});
  return rows;
}

/// Milliseconds of one run; `ok` is cleared when its fixpoint is not `want`.
double timed_ms(const gamma::Engine& engine, const GammaRow& row,
                unsigned workers, const gamma::Multiset& want, bool& ok) {
  gamma::RunOptions opts;
  opts.workers = workers;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = engine.run(row.program, row.initial, opts);
  const auto dt = std::chrono::steady_clock::now() - t0;
  ok = ok && r.final_multiset == want;
  return std::chrono::duration<double, std::milli>(dt).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// How many threads' worth of work this machine does at once right now:
/// one fixed ALU loop per thread, 4 threads against 1, as a throughput
/// ratio (4.0 = four free cores, 1.0 = none to spare). Shared hosts move
/// it from run to run, and no par/idx ratio can beat 1/ceiling.
double thread_ceiling() {
  const auto spin = [] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1;
    benchmark::DoNotOptimize(x);
  };
  const auto seconds = [&](unsigned threads) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::jthread> pool;
      for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const double one = seconds(1);
  return 4.0 * one / seconds(4);
}

std::string fixed(double v, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << v;
  return out.str();
}

/// E8's wall-clock table: `par` at 1, 2 and 4 workers against `idx` on
/// every Gamma row, timed interleaved (idx, par1, par2, par4 per rep) in
/// this process, medians of 7 reps. `same` is NO when any run's fixpoint
/// differs from the indexed engine's.
void verify_gamma_wall_clock() {
  bench::header("E8 — parallel Gamma against the indexed engine",
                "claim: partition -> local fixpoint -> merge reaches the "
                "indexed engine's fixpoint on every row; ratios are par/idx "
                "wall-clock from this run");
  std::cout << "(" << std::thread::hardware_concurrency()
            << " hardware thread(s); 4 threads ran " << fixed(thread_ceiling(), 2)
            << "x the work of 1 just before the table)\n";
  bench::Table table({"workload", "idx_ms", "par1_ms", "par2_ms", "par4_ms",
                      "par1/idx", "par2/idx", "par4/idx", "same"},
                     13);
  constexpr int kReps = 7;
  constexpr std::array<unsigned, 3> kWorkers = {1, 2, 4};
  const gamma::IndexedEngine idx;
  const gamma::ParallelEngine par;
  for (const GammaRow& row : gamma_rows()) {
    const gamma::Multiset want =
        idx.run(row.program, row.initial).final_multiset;
    bool ok = true;
    std::vector<double> idx_ms;
    std::array<std::vector<double>, kWorkers.size()> par_ms;
    for (int rep = 0; rep < kReps; ++rep) {
      idx_ms.push_back(timed_ms(idx, row, 1, want, ok));
      for (std::size_t w = 0; w < kWorkers.size(); ++w) {
        par_ms[w].push_back(timed_ms(par, row, kWorkers[w], want, ok));
      }
    }
    const double base = median(idx_ms);
    std::array<double, kWorkers.size()> med{};
    for (std::size_t w = 0; w < kWorkers.size(); ++w) {
      med[w] = median(par_ms[w]);
    }
    table.row(row.name, fixed(base, 3), fixed(med[0], 3), fixed(med[1], 3),
              fixed(med[2], 3), fixed(med[0] / base, 2),
              fixed(med[1] / base, 2), fixed(med[2] / base, 2),
              ok ? "yes" : "NO");
  }
}

void verify() {
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
  verify_gamma_wall_clock();

  // One instrumented parallel-engine run so the BENCH_*.json trajectory
  // carries engine-internal counters (match attempts and failures, passes,
  // anchor skips), not just wall time. The timed benchmarks below run with
  // telemetry off, as users would.
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

// --- Gamma engines on the keyed-sum join (perfbench `parallel`) ---

/// Times `Engine` on the keyed case; the row's label says whether the last
/// timed run reached the per-label sums (`NO` on a mismatch).
template <typename Engine>
void run_gamma_keyed(benchmark::State& state, unsigned workers) {
  const KeyedCase& c = keyed_case();
  const Engine engine;
  gamma::RunOptions opts;
  opts.workers = workers;
  gamma::Multiset final_state;
  for (auto _ : state) {
    final_state = engine.run(c.program, c.initial, opts).final_multiset;
    benchmark::DoNotOptimize(final_state);
  }
  state.SetLabel(final_state == c.sums ? "per-label sums yes"
                                       : "per-label sums NO");
}

void BM_GammaKeyed_Indexed(benchmark::State& state) {
  run_gamma_keyed<gamma::IndexedEngine>(state, 1);
}
BENCHMARK(BM_GammaKeyed_Indexed)->Unit(benchmark::kMillisecond);

void BM_GammaKeyed_Parallel4(benchmark::State& state) {
  run_gamma_keyed<gamma::ParallelEngine>(state, 4);
}
BENCHMARK(BM_GammaKeyed_Parallel4)->Unit(benchmark::kMillisecond);

// --- Gamma engines on independent countdown chains ---

void BM_GammaChains_Parallel(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  const gamma::Program p = chain_program(chains);
  const gamma::Multiset m = chain_init(chains, 8, 16);
  gamma::RunOptions opts;
  opts.workers = 4;
  const gamma::ParallelEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m, opts));
  }
}
BENCHMARK(BM_GammaChains_Parallel)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// --- dataflow engines on the multi-loop workload ---

void BM_DataflowLoops_Interpreter(benchmark::State& state) {
  const dataflow::Graph g = paper::multi_loop_graph(
      static_cast<std::size_t>(state.range(0)), 16, true);
  const dataflow::Interpreter engine;
  std::uint64_t fires = 0;
  for (auto _ : state) {
    const dataflow::DfRunResult r = engine.run(g);
    fires += r.fires;
    benchmark::DoNotOptimize(r);
  }
  // items_per_second is fires per second: 1e9 / it is ns per fire.
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
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
  std::uint64_t fires = 0;
  for (auto _ : state) {
    const dataflow::DfRunResult r = engine.run(g, opts);
    fires += r.fires;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
  state.SetLabel(std::to_string(state.range(0)) + " workers");
}
// Real time: the PEs' CPU time is not the calling thread's, so items per
// second (fires) are taken over the wall clock.
BENCHMARK(BM_DataflowLoops_ParallelPEs)
    ->UseRealTime()
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
