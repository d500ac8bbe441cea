// E13 — the store under the runtime core's match pipeline: raw find and
// find+commit throughput on growing stores.
//
// Verification table (hardware-independent shape):
//   - E18 dense match: the exhaustive failed search (one fixed-point proof)
//     on growing dense buckets must find nothing.
// Timed benchmarks: MatchPipeline::find on growing stores (hit and miss
// probes), find+commit fixpoints, the store's own insert/remove at a
// steady size, on bare ints and on string-labelled pairs, and keyed fires
// on string against int labels (E30).
#include <array>
#include <chrono>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"

using namespace gammaflow;

namespace {

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
  // E18 — dense match: the identical EXHAUSTIVE failed search (every
  // [x,'h'] pair probed, the condition false everywhere — one fixed-point
  // proof). The innermost bucket sweep is one bitmap evaluation per outer
  // binding; the answer (no match) is checked every rep.
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

// --- Store insert/remove -------------------------------------------------

/// The store half of a fire at a steady size n: each iteration removes the
/// element at a uniformly random rank of the arity bucket (a select) and
/// inserts a fresh one. Flat in n when removal does not move the bucket.
void BM_StoreRemove_RandomRank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  gamma::Store store;
  std::int64_t next = 0;
  for (; next < state.range(0); ++next) {
    store.insert(gamma::Element{Value(next)});
  }
  Rng rng(11);
  for (auto _ : state) {
    store.remove(store.arity_bucket(1)[rng.bounded(n)]);
    const Value v(next++);
    benchmark::DoNotOptimize(store.insert(std::span<const Value>(&v, 1)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreRemove_RandomRank)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->ArgName("n")
    ->Unit(benchmark::kNanosecond);

/// The same at a steady size n for string-labelled pairs [v, 'kN'] over
/// 64 labels, with the label field indexed (the keyed programs' layout):
/// the remove unindexes the label bucket, the insert writes the label and
/// indexes it again.
void BM_StoreInsertRemove_Labelled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Value> labels;
  for (int k = 0; k < 64; ++k) {
    labels.emplace_back(std::string("k").append(std::to_string(k)));
  }
  gamma::Store store(gamma::FieldSet{1});
  std::int64_t next = 0;
  for (; next < state.range(0); ++next) {
    store.insert(gamma::Element{Value(next), labels[static_cast<std::size_t>(next % 64)]});
  }
  Rng rng(11);
  for (auto _ : state) {
    store.remove(store.arity_bucket(2)[rng.bounded(n)]);
    const std::array<Value, 2> fields{Value(next), labels[static_cast<std::size_t>(next % 64)]};
    ++next;
    benchmark::DoNotOptimize(store.insert(fields));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreInsertRemove_Labelled)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->ArgName("n")
    ->Unit(benchmark::kNanosecond);

// --- Keyed fires: string labels against int labels ------------------------

/// perfbench `parallel`'s shape: 4096 [v, label] over 64 labels, reduced to
/// one sum per label by find + commit through a MatchSite, as the engines
/// fire. `label(i)` is the label of element i.
template <typename Label>
void keyed_fire_fixpoint(benchmark::State& state, Label&& label) {
  const gamma::Program p = gamma::dsl::parse_program(
      "Rkey = replace [x, k], [y, k] by [x + y, k]");
  const gamma::Reaction& r = p.stages()[0][0];
  Rng values(3);
  gamma::Multiset m;
  for (std::int64_t i = 0; i < 4096; ++i) {
    m.add(gamma::Element{
        Value(static_cast<std::int64_t>(values.bounded(1000))), label(i % 64)});
  }
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    gamma::Store store(m, gamma::FieldSet::of(p));
    runtime::MatchSite site;
    state.ResumeTiming();
    while (runtime::MatchPipeline::find(store, r, &rng, site)) {
      runtime::MatchPipeline::commit(store, site.match());
    }
    if (store.size() != 64) state.SkipWithError("not one sum per label");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (4096 - 64));
}

void BM_KeyedFire_Labelled(benchmark::State& state) {
  keyed_fire_fixpoint(state, [](std::int64_t k) {
    return Value(std::string("k").append(std::to_string(k)));
  });
}
BENCHMARK(BM_KeyedFire_Labelled)->Unit(benchmark::kMicrosecond);

void BM_KeyedFire_Int(benchmark::State& state) {
  keyed_fire_fixpoint(state, [](std::int64_t k) { return Value(k); });
}
BENCHMARK(BM_KeyedFire_Int)->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
