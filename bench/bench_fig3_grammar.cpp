// E3 (Fig. 3): the Gamma surface grammar — parse / print / round-trip
// throughput on synthetic programs of growing size, plus verification that
// every paper listing round-trips.
#include <sstream>

#include "bench_util.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/lexer.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/paper/figures.hpp"

using namespace gammaflow;

namespace {

/// A chain program with n reactions: Ri consumes label li, emits l(i+1),
/// alternating unconditional / if-else shapes so the grammar is exercised
/// broadly.
std::string chain_program_source(std::size_t n) {
  std::ostringstream os;
  for (std::size_t i = 0; i < n; ++i) {
    os << "R" << i << " = replace [x, 'l" << i << "', v]\n";
    if (i % 2 == 0) {
      os << "  by [x * 2 + " << i << ", 'l" << i + 1 << "', v]\n";
    } else {
      os << "  by [x - 1, 'l" << i + 1 << "', v] if x > " << i << '\n'
         << "  by [x + 1, 'l" << i + 1 << "', v] else\n";
    }
  }
  return os.str();
}

void verify() {
  bench::header("E3 / Fig. 3 — the Gamma grammar",
                "claim: the paper's surface syntax is a context-free language"
                " our parser accepts; print/parse is a round trip");
  bench::Table table({"listing", "reactions", "roundtrip"});
  const auto check = [&](const char* name, const gamma::Program& p) {
    const std::string printed = gamma::dsl::print(p);
    const gamma::Program again = gamma::dsl::parse_program(printed);
    table.row(name, p.reaction_count(),
              gamma::dsl::print(again) == printed ? "yes" : "NO");
  };
  check("Fig1 R1-R3", paper::fig1_gamma());
  check("Fig1 Rd1", paper::fig1_reduced_gamma());
  check("Fig2 R11-R19", paper::fig2_gamma());
  check("Fig2 Rd11-Rd16", paper::fig2_reduced_gamma());
  check("chain(100)", gamma::dsl::parse_program(chain_program_source(100)));
}

void BM_Grammar_Parse(benchmark::State& state) {
  const std::string source =
      chain_program_source(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gamma::dsl::parse_program(source));
  }
  state.counters["bytes"] = static_cast<double>(source.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Grammar_Parse)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_Grammar_Print(benchmark::State& state) {
  const gamma::Program p = gamma::dsl::parse_program(
      chain_program_source(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gamma::dsl::print(p));
  }
}
BENCHMARK(BM_Grammar_Print)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMicrosecond);

void BM_Grammar_RoundTrip(benchmark::State& state) {
  const std::string source =
      chain_program_source(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gamma::dsl::print(gamma::dsl::parse_program(source)));
  }
}
BENCHMARK(BM_Grammar_RoundTrip)
    ->RangeMultiplier(10)
    ->Range(10, 1000)
    ->Unit(benchmark::kMicrosecond);

void BM_Grammar_Lexer(benchmark::State& state) {
  const std::string source =
      chain_program_source(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::tokenize(source));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source.size()));
}
BENCHMARK(BM_Grammar_Lexer)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMicrosecond);

/// perfbench's `--init` shapes, 4096 elements: `[int]` (reduce) or
/// `[int,'kNN']` over 64 labels (parallel).
std::string elements_source(bool pairs) {
  std::string text;
  Rng rng(5);
  for (std::size_t i = 0; i < 4096; ++i) {
    text.append(i == 0 ? "[" : " [")
        .append(std::to_string(static_cast<std::int64_t>(rng.bounded(2001)) -
                               1000));
    if (pairs) text.append(",'k").append(std::to_string(i % 64)).append("'");
    text.append("]");
  }
  return text;
}

/// The element read layer: `--init` and serve element text to a Multiset.
void BM_ReadElements(benchmark::State& state) {
  const std::string source = elements_source(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gamma::dsl::parse_elements(source));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(source.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ReadElements)
    ->ArgName("pairs")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
