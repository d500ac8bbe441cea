// E7 (§III-A3): reductions. Quantifies the paper's granularity trade-off —
// fused programs have fewer concurrent match opportunities and lower match
// probability, but fewer/cheaper firings per result — and times the
// fuse/expand passes themselves.
#include <sstream>

#include "bench_util.hpp"
#include "gammaflow/analysis/analysis.hpp"
#include "gammaflow/analysis/optimize.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/paper/figures.hpp"
#include "gammaflow/translate/df_to_gamma.hpp"
#include "gammaflow/translate/reduce.hpp"

using namespace gammaflow;

namespace {

/// k independent copies of the Fig. 1 input set (distinct values per copy).
gamma::Multiset wide_inputs(std::size_t copies) {
  gamma::Multiset m;
  for (std::size_t i = 0; i < copies; ++i) {
    const auto base = static_cast<std::int64_t>(i) * 100;
    m.add(gamma::Element::labeled(Value(base + 1), "A1"));
    m.add(gamma::Element::labeled(Value(base + 5), "B1"));
    m.add(gamma::Element::labeled(Value(base + 3), "C1"));
    m.add(gamma::Element::labeled(Value(base + 2), "D1"));
  }
  return m;
}

void verify() {
  bench::header(
      "E7 / SIII-A3 — reductions (R1,R2,R3 vs Rd1)",
      "claim: fusing reactions decreases the opportunity to explore "
      "parallelism (concurrent firings) and the chance a random selection "
      "reacts (match probability)");
  const gamma::Program fine = paper::fig1_gamma();
  const gamma::Program coarse = paper::fig1_reduced_gamma();
  bench::Table table({"copies", "conc_fine", "conc_Rd1", "p(R1)", "p(Rd1)"});
  for (const std::size_t copies : {1u, 2u, 4u, 8u, 16u}) {
    const gamma::Multiset m = wide_inputs(copies);
    const double p_r1 = analysis::match_probability(*fine.find("R1"), m);
    const double p_rd1 = analysis::match_probability(*coarse.find("Rd1"), m);
    std::ostringstream pf, pc;
    pf.precision(3);
    pc.precision(3);
    pf << p_r1;
    pc << p_rd1;
    table.row(copies, analysis::concurrent_firings(fine, m),
              analysis::concurrent_firings(coarse, m), pf.str(), pc.str());
  }
  std::cout << "(paper: \"the opportunity of explore the parallelism of "
               "reactions decrease\" under reduction)\n";

  // E16: the fusion planner must rediscover the hand-applied Rd1 on its
  // own: same reaction count, same arity, identical fixpoint. Structural
  // identity makes the auto-vs-hand runtime gap pure noise (the <= 5%
  // acceptance bar); a NO in any cell fails the CI smoke.
  bench::header(
      "E16 / optimizer — auto-fusion vs hand-applied Rd1",
      "claim: the analysis-driven planner finds the paper's reduction "
      "without being told; cost-gated, probe-verified");
  obs::Telemetry tel;
  analysis::OptimizeOptions oopts;
  oopts.telemetry = &tel;
  const auto auto_fused =
      analysis::optimize_program(fine, paper::fig1_initial(), oopts);
  // Fixpoints are compared against the hand-written Rd1 under the same
  // seed: past one copy the fine-grained program may legally pair elements
  // across copies differently (Gamma nondeterminism), but auto vs hand
  // must agree exactly — they are the same reaction modulo binder names.
  bench::Table t2({"copies", "reactions", "arity", "same_as_Rd1", "fixpoint_ok"});
  for (const std::size_t copies : {1u, 4u, 16u}) {
    const gamma::Multiset m = wide_inputs(copies);
    const gamma::IndexedEngine engine;
    const bool same_fixpoint = engine.run(auto_fused.program, m).final_multiset ==
                               engine.run(coarse, m).final_multiset;
    const auto reactions = auto_fused.program.all_reactions();
    const bool same_shape = reactions.size() == 1 &&
                            reactions[0]->arity() ==
                                coarse.all_reactions()[0]->arity();
    t2.row(copies, reactions.size(), reactions[0]->arity(),
           same_shape ? "YES" : "NO", same_fixpoint ? "YES" : "NO");
  }
  tel.stats().count("autofuse.reactions",
                    auto_fused.program.all_reactions().size());
  tel.stats().count("autofuse.cost_before",
                    static_cast<std::uint64_t>(auto_fused.report.cost_before));
  tel.stats().count("autofuse.cost_after",
                    static_cast<std::uint64_t>(auto_fused.report.cost_after));
  bench::metrics_json(std::cout, "reductions_autofuse",
                      tel.stats().snapshot());
}

void BM_Reduce_RunFineGrained(benchmark::State& state) {
  const gamma::Program p = paper::fig1_gamma();
  const gamma::Multiset m =
      wide_inputs(static_cast<std::size_t>(state.range(0)));
  const gamma::IndexedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m));
  }
}
BENCHMARK(BM_Reduce_RunFineGrained)
    ->RangeMultiplier(4)
    ->Range(1, 256)
    ->Unit(benchmark::kMicrosecond);

void BM_Reduce_RunFused(benchmark::State& state) {
  const gamma::Program p = paper::fig1_reduced_gamma();
  const gamma::Multiset m =
      wide_inputs(static_cast<std::size_t>(state.range(0)));
  const gamma::IndexedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m));
  }
}
BENCHMARK(BM_Reduce_RunFused)
    ->RangeMultiplier(4)
    ->Range(1, 256)
    ->Unit(benchmark::kMicrosecond);

void BM_Reduce_RunAutoFused(benchmark::State& state) {
  // The planner's output instead of the hand-written Rd1: the acceptance
  // bar is this arm tracking BM_Reduce_RunFused within noise.
  const gamma::Program p =
      analysis::optimize_program(paper::fig1_gamma(), paper::fig1_initial())
          .program;
  const gamma::Multiset m =
      wide_inputs(static_cast<std::size_t>(state.range(0)));
  const gamma::IndexedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(p, m));
  }
}
BENCHMARK(BM_Reduce_RunAutoFused)
    ->RangeMultiplier(4)
    ->Range(1, 256)
    ->Unit(benchmark::kMicrosecond);

void BM_Reduce_OptimizePass(benchmark::State& state) {
  // The planner itself on a deep translated chain (probe verification on).
  const auto conv = translate::dataflow_to_gamma(paper::random_expression_graph(
      static_cast<std::size_t>(state.range(0)), 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::optimize_program(conv.program, conv.initial));
  }
  state.counters["reactions"] =
      static_cast<double>(conv.program.reaction_count());
}
BENCHMARK(BM_Reduce_OptimizePass)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Unit(benchmark::kMicrosecond);

void BM_Reduce_FusePass(benchmark::State& state) {
  // Fusing a deep chain: random expression graph -> converted program.
  const auto conv = translate::dataflow_to_gamma(paper::random_expression_graph(
      static_cast<std::size_t>(state.range(0)), 5));
  const analysis::OptimizeOptions opts = analysis::reduction_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::optimize_program(conv.program, conv.initial, opts));
  }
  state.counters["reactions"] =
      static_cast<double>(conv.program.reaction_count());
}
BENCHMARK(BM_Reduce_FusePass)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_Reduce_ExpandPass(benchmark::State& state) {
  // Expanding the fused form back out.
  const auto conv = translate::dataflow_to_gamma(paper::random_expression_graph(
      static_cast<std::size_t>(state.range(0)), 5));
  const gamma::Program fused =
      analysis::optimize_program(conv.program, conv.initial,
                                 analysis::reduction_options())
          .program;
  for (auto _ : state) {
    benchmark::DoNotOptimize(translate::expand_program(fused));
  }
}
BENCHMARK(BM_Reduce_ExpandPass)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_Reduce_MatchOpportunityCount(benchmark::State& state) {
  const gamma::Program fine = paper::fig1_gamma();
  const gamma::Multiset m =
      wide_inputs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::match_opportunities(fine, m, 100000));
  }
}
BENCHMARK(BM_Reduce_MatchOpportunityCount)
    ->RangeMultiplier(4)
    ->Range(1, 64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
