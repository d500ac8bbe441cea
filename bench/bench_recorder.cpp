// E14 — run-recorder overhead. The journal behind `--record-out` and
// `gammaflow viz` must be effectively free when off (a null-pointer check on
// the hot commit path) and cheap enough to leave on for diagnostic runs.
// Verifies that a recorded run computes the identical result and that the
// journal replays to it, then times record-off vs record-on across the
// Gamma and dataflow engines.
#include <chrono>

#include "bench_util.hpp"
#include "gammaflow/dataflow/engine.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/runtime/step_loop.hpp"

using namespace gammaflow;

namespace {

gamma::Multiset ints(std::int64_t n) {
  gamma::Multiset m;
  for (std::int64_t i = 0; i < n; ++i) m.add(gamma::Element({Value(i)}));
  return m;
}

const gamma::Program& min_program() {
  static const gamma::Program p =
      gamma::dsl::parse_program("Rmin = replace x, y by x where x < y");
  return p;
}

void verify() {
  bench::header("E14 — run-recorder overhead (provenance journal)",
                "claim: recording is off-by-default free, and a recorded "
                "run's journal replays to the identical final store");
  bench::Table table(
      {"workload", "fires", "journal_f", "rounds", "bytes", "replay_ok"});
  MetricsSnapshot metrics;

  const auto time_ns = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };

  {
    const gamma::Multiset initial = ints(256);
    gamma::RunOptions off;
    off.seed = 1;
    gamma::RunResult plain;
    const std::uint64_t ns_off =
        time_ns([&] { plain = gamma::IndexedEngine().run(min_program(),
                                                         initial, off); });
    obs::RunRecorder rec;
    gamma::RunOptions on = off;
    on.record = &rec;
    gamma::RunResult recorded;
    const std::uint64_t ns_on =
        time_ns([&] { recorded = gamma::IndexedEngine().run(min_program(),
                                                            initial, on); });
    const obs::Journal j = rec.take();
    const bool ok =
        plain.final_multiset.canonical() == recorded.final_multiset.canonical() &&
        obs::verify_journal(j).empty() &&
        obs::replay_rounds(j, j.rounds.size()) ==
            runtime::store_counts(recorded.final_multiset);
    table.row("gamma min-256 (idx)", recorded.steps, j.fires.size(),
              j.rounds.size(), obs::journal_to_string(j).size(),
              ok ? "yes" : "NO");
    metrics.counters["gamma_record_off_ns"] = ns_off;
    metrics.counters["gamma_record_on_ns"] = ns_on;
    metrics.counters["gamma_journal_bytes"] = obs::journal_to_string(j).size();
    metrics.counters["gamma_journal_fires"] = j.fires.size();
  }
  {
    const dataflow::Graph g = paper::fig2_graph(128, 5, 0, true);
    dataflow::DfRunOptions off;
    dataflow::DfRunResult plain;
    const std::uint64_t ns_off =
        time_ns([&] { plain = dataflow::Interpreter().run(g, off); });
    obs::RunRecorder rec;
    dataflow::DfRunOptions on;
    on.record = &rec;
    dataflow::DfRunResult recorded;
    const std::uint64_t ns_on =
        time_ns([&] { recorded = dataflow::Interpreter().run(g, on); });
    const obs::Journal j = rec.take();
    const bool ok = plain.outputs == recorded.outputs &&
                    obs::verify_journal(j).empty();
    table.row("dataflow fig2 z=128", recorded.fires, j.fires.size(),
              j.rounds.size(), obs::journal_to_string(j).size(),
              ok ? "yes" : "NO");
    metrics.counters["df_record_off_ns"] = ns_off;
    metrics.counters["df_record_on_ns"] = ns_on;
    metrics.counters["df_journal_bytes"] = obs::journal_to_string(j).size();
    metrics.counters["df_journal_fires"] = j.fires.size();
  }
  bench::metrics_json(std::cout, "recorder_overhead", metrics);
}

void BM_Gamma_RecordOff(benchmark::State& state) {
  const gamma::Multiset initial = ints(state.range(0));
  gamma::RunOptions opts;
  opts.seed = 1;
  const gamma::IndexedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(min_program(), initial, opts));
  }
}
BENCHMARK(BM_Gamma_RecordOff)
    ->RangeMultiplier(4)->Range(16, 1024)->Unit(benchmark::kMicrosecond);

void BM_Gamma_RecordOn(benchmark::State& state) {
  const gamma::Multiset initial = ints(state.range(0));
  const gamma::IndexedEngine engine;
  for (auto _ : state) {
    obs::RunRecorder rec;
    gamma::RunOptions opts;
    opts.seed = 1;
    opts.record = &rec;
    benchmark::DoNotOptimize(engine.run(min_program(), initial, opts));
    benchmark::DoNotOptimize(rec.take());
  }
}
BENCHMARK(BM_Gamma_RecordOn)
    ->RangeMultiplier(4)->Range(16, 1024)->Unit(benchmark::kMicrosecond);

void BM_Df_RecordOff(benchmark::State& state) {
  const dataflow::Graph g = paper::fig2_graph(state.range(0), 5, 0, true);
  const dataflow::Interpreter interp;
  for (auto _ : state) benchmark::DoNotOptimize(interp.run(g));
}
BENCHMARK(BM_Df_RecordOff)
    ->RangeMultiplier(4)->Range(16, 256)->Unit(benchmark::kMicrosecond);

void BM_Df_RecordOn(benchmark::State& state) {
  const dataflow::Graph g = paper::fig2_graph(state.range(0), 5, 0, true);
  const dataflow::Interpreter interp;
  for (auto _ : state) {
    obs::RunRecorder rec;
    dataflow::DfRunOptions opts;
    opts.record = &rec;
    benchmark::DoNotOptimize(interp.run(g, opts));
    benchmark::DoNotOptimize(rec.take());
  }
}
BENCHMARK(BM_Df_RecordOn)
    ->RangeMultiplier(4)->Range(16, 256)->Unit(benchmark::kMicrosecond);

void BM_Journal_SerializeParse(benchmark::State& state) {
  obs::RunRecorder rec;
  gamma::RunOptions opts;
  opts.seed = 1;
  opts.record = &rec;
  (void)gamma::IndexedEngine().run(min_program(), ints(state.range(0)), opts);
  const obs::Journal j = rec.take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::parse_journal_string(obs::journal_to_string(j)));
  }
}
BENCHMARK(BM_Journal_SerializeParse)
    ->RangeMultiplier(4)->Range(16, 1024)->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
