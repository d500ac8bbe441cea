// E13 — the store under the runtime core's match pipeline: raw
// find/commit throughput, and how the sharded store scales with shard count
// and survives conflict-class skew.
//
// Verification tables (hardware-independent shape):
//   - match throughput vs shard count: one workload, the ParallelEngine on
//     the plan's sharded path with 1..8 classes — fires are identical, the
//     commit path needs no revalidation, and the sharded store splits the
//     work into independently-locked sub-chemistries;
//   - conflict-class skew: the same total population concentrated into one
//     hot class — shard utilization collapses toward a single shard, the
//     known limit of class partitioning (the planner still refuses nothing:
//     results stay identical, only the speedup fades).
//   - E18 dense match: the exhaustive failed search (one quiescence proof)
//     on growing dense buckets must find nothing.
// Timed benchmarks: MatchPipeline::find on growing stores (hit and miss
// probes), find+commit fixpoints, and the sharded vs global-lock engine run.
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "bench_util.hpp"
#include "gammaflow/analysis/interference.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/sharded_store.hpp"

using namespace gammaflow;

namespace {

/// `chains` independent countdown populations — one conflict class per
/// chain, so plan_shards gives the engine `chains` shards.
gamma::Program chain_program(std::size_t chains) {
  std::ostringstream src;
  for (std::size_t i = 0; i < chains; ++i) {
    src << "R" << i << " = replace [x,'c" << i << "'] by [x - 1,'c" << i
        << "'] if x > 0\n";
  }
  return gamma::dsl::parse_program(src.str());
}

/// `total` elements distributed over the chains. `hot_permille` of them go
/// to chain 0 (the skew knob); the rest spread round-robin.
gamma::Multiset chain_init(std::size_t chains, std::size_t total,
                           std::int64_t countdown, std::size_t hot_permille) {
  gamma::Multiset m;
  const std::size_t hot = total * hot_permille / 1000;
  for (std::size_t k = 0; k < total; ++k) {
    const std::size_t chain = k < hot ? 0 : k % chains;
    m.add(gamma::Element::labeled(
        Value(countdown), std::string("c").append(std::to_string(chain))));
  }
  return m;
}

/// `shard` passes the conflict classes, which unlock the sharded store;
/// without them the engine runs the optimistic global-lock path.
gamma::RunResult run_chains(std::size_t chains, std::size_t total,
                            std::size_t hot_permille, bool shard,
                            obs::Telemetry* tel) {
  const gamma::Program p = chain_program(chains);
  const gamma::Multiset m = chain_init(chains, total, 12, hot_permille);
  gamma::RunOptions opts;
  opts.workers = 4;
  opts.telemetry = tel;
  if (shard) {
    opts.conflict_classes =
        analysis::analyze_interference(p, m).engine_classes();
  }
  return gamma::ParallelEngine().run(p, m, opts);
}

gamma::Multiset labeled_ints(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  gamma::Multiset m;
  for (std::size_t i = 0; i < n; ++i) {
    m.add(gamma::Element::labeled(
        Value(static_cast<std::int64_t>(rng.bounded(1000))), "h"));
  }
  return m;
}

void verify() {
  bench::header(
      "E13 — sharded store: match throughput vs shard count and skew",
      "claim: per-shard locks preserve fires and zero-conflict commits at "
      "every shard count; skewing the population into one class degrades "
      "the win gracefully, never the result");

  {
    bench::Table table({"shards", "store", "fires", "conflicts", "wall_ms"},
                       12);
    for (const std::size_t chains : {1u, 2u, 4u, 8u}) {
      for (const bool shard : {false, true}) {
        obs::Telemetry tel;
        const auto r = run_chains(chains, 192, 0, shard, &tel);
        const auto it = r.metrics.counters.find("gamma.commit_conflicts");
        std::ostringstream wall;
        wall.precision(3);
        wall << r.wall_seconds * 1e3;
        table.row(chains, shard && chains > 1 ? "sharded" : "global", r.steps,
                  it == r.metrics.counters.end() ? 0 : it->second,
                  wall.str());
        MetricsSnapshot m = r.metrics;
        m.counters["store.fires"] = r.steps;
        m.counters["store.wall_us"] =
            static_cast<std::uint64_t>(r.wall_seconds * 1e6);
        bench::metrics_json(std::cout,
                            "store_shards_" + std::to_string(chains) +
                                (shard ? "_sharded" : "_global"),
                            m);
      }
    }
  }

  {
    bench::Table table({"hot_pct", "fires", "conflicts", "wall_ms"}, 12);
    for (const std::size_t hot_permille : {0u, 500u, 900u, 1000u}) {
      obs::Telemetry tel;
      const auto r = run_chains(8, 192, hot_permille, true, &tel);
      const auto it = r.metrics.counters.find("gamma.commit_conflicts");
      std::ostringstream wall;
      wall.precision(3);
      wall << r.wall_seconds * 1e3;
      table.row(hot_permille / 10, r.steps,
                it == r.metrics.counters.end() ? 0 : it->second, wall.str());
      MetricsSnapshot m = r.metrics;
      m.counters["store.fires"] = r.steps;
      m.counters["store.wall_us"] =
          static_cast<std::uint64_t>(r.wall_seconds * 1e6);
      bench::metrics_json(
          std::cout, "store_skew_" + std::to_string(hot_permille), m);
    }
  }

  // E18 — dense match: the identical EXHAUSTIVE failed search (every
  // [x,'h'] pair probed, the condition false everywhere — one quiescence
  // proof). The innermost bucket sweep is one bitmap evaluation per outer
  // binding; the answer (no match) is checked every rep.
  {
    std::cout << "\nE18 dense-match: exhaustive miss proof\n";
    bench::Table table({"n", "find_us"});
    const gamma::Program p = gamma::dsl::parse_program(
        "R = replace [x,'h'], [y,'h'] by [x,'h'] where x < 0");
    const gamma::Reaction& r = p.stages()[0][0];
    MetricsSnapshot metrics;
    for (const std::size_t n : {256u, 1024u, 2048u}) {
      gamma::Store store(labeled_ints(n, 17), gamma::FieldSet::of(p));
      // O(n^2) probes per sweep: keep the repetition budget flat-ish so the
      // verification stage stays CI-sized even on debug builds.
      const int reps = n >= 2048 ? 1 : (n >= 1024 ? 3 : 10);
      if (reps > 1) {  // warm allocators/caches where a rep is cheap
        (void)runtime::MatchPipeline::find(store, r);
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < reps; ++i) {
        if (runtime::MatchPipeline::find(store, r)) {
          std::cout << "FATAL: dense miss proof found a match\n";
          std::exit(1);
        }
      }
      const auto dt = std::chrono::steady_clock::now() - t0;
      const double us =
          std::chrono::duration<double, std::micro>(dt).count() / reps;
      metrics.counters["store.dense" + std::to_string(n) + "_ns"] =
          static_cast<std::uint64_t>(us * 1e3);
      table.row(n, static_cast<std::int64_t>(us));
    }
    bench::metrics_json(std::cout, "store_dense_batch", metrics);
  }
}

// --- MatchPipeline::find throughput ----------------------------------------

/// An enabled arity-2 probe: every call walks the bucket and binds a pair.
void BM_StoreFind_Hit(benchmark::State& state) {
  const gamma::Program p = gamma::dsl::parse_program(
      "R = replace [x,'h'], [y,'h'] by [x + y,'h']");
  gamma::Store store(labeled_ints(static_cast<std::size_t>(state.range(0)),
                                  17),
                     gamma::FieldSet::of(p));
  const gamma::Reaction& r = p.stages()[0][0];
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::MatchPipeline::find(store, r, &rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreFind_Hit)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->ArgName("n")
    ->Unit(benchmark::kNanosecond);

/// A disabled probe (condition never holds): the cost of an EXHAUSTIVE
/// failed search — the fixed-point proof every quiescence check pays, and
/// the dense-match sweep where the batch bitmap pays off most (every
/// candidate bucket is evaluated to the end).
void BM_StoreFind_MissProof(benchmark::State& state) {
  const gamma::Program p = gamma::dsl::parse_program(
      "R = replace [x,'h'], [y,'h'] by [x,'h'] where x < 0");
  gamma::Store store(labeled_ints(static_cast<std::size_t>(state.range(0)),
                                  17),
                     gamma::FieldSet::of(p));
  const gamma::Reaction& r = p.stages()[0][0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::MatchPipeline::find(store, r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreFind_MissProof)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->ArgName("n")
    ->Unit(benchmark::kNanosecond);

/// find+commit to the fixed point: sum-reduces n elements to one.
void BM_StoreFindCommit_Fixpoint(benchmark::State& state) {
  const gamma::Program p = gamma::dsl::parse_program(
      "R = replace [x,'h'], [y,'h'] by [x + y,'h']");
  const gamma::Multiset m =
      labeled_ints(static_cast<std::size_t>(state.range(0)), 17);
  const gamma::Reaction& r = p.stages()[0][0];
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    gamma::Store store(m, gamma::FieldSet::of(p));
    state.ResumeTiming();
    while (auto match = runtime::MatchPipeline::find(store, r, &rng)) {
      runtime::MatchPipeline::commit(store, *match);
    }
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(BM_StoreFindCommit_Fixpoint)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->ArgName("n")
    ->Unit(benchmark::kMicrosecond);

// --- engine-level: sharded vs global lock, shard-count sweep ---------------

void BM_ShardedEngine_ShardSweep(benchmark::State& state) {
  const bool shard = state.range(0) != 0;
  const auto chains = static_cast<std::size_t>(state.range(1));
  const gamma::Program p = chain_program(chains);
  const gamma::Multiset m = chain_init(chains, 128, 12, 0);
  gamma::RunOptions opts;
  opts.workers = 4;
  if (shard) {
    opts.conflict_classes =
        analysis::analyze_interference(p, m).engine_classes();
  }
  const gamma::ParallelEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m, opts));
  }
  state.SetLabel(shard ? "sharded" : "global-lock");
}
BENCHMARK(BM_ShardedEngine_ShardSweep)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_ShardedEngine_Skew(benchmark::State& state) {
  const auto hot_permille = static_cast<std::size_t>(state.range(0));
  const gamma::Program p = chain_program(8);
  const gamma::Multiset m = chain_init(8, 128, 12, hot_permille);
  gamma::RunOptions opts;
  opts.workers = 4;
  opts.conflict_classes =
      analysis::analyze_interference(p, m).engine_classes();
  const gamma::ParallelEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m, opts));
  }
  state.SetLabel(std::to_string(hot_permille / 10) + "% hot");
}
BENCHMARK(BM_ShardedEngine_Skew)
    ->Arg(0)
    ->Arg(500)
    ->Arg(900)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
