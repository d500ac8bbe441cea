// E12: bytecode compilation ablation. The same condition/action expressions
// are evaluated by the AST walker (expr::eval) and by the register VM
// (expr::compile + Vm::run); results are asserted identical, then per-eval
// latency is compared. The headline
// number is the geometric-mean VM speedup over condition-heavy expressions,
// emitted as `bytecode.geomean_speedup_milli` in the "# metrics" line.
// The batch-backend section (E18) re-runs the same conditions as 4096-lane
// column batches (compile_batch + BatchVm), bitmap checked lane-for-lane
// against the scalar VM, reporting per-lane latency and
// `bytecode.batch_geomean_speedup_milli`.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "bench_util.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/expr/eval.hpp"
#include "gammaflow/expr/parser.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"

using namespace gammaflow;

namespace {

expr::ExprPtr parse_expr(const std::string& text) {
  expr::TokenStream ts(text);
  expr::ExprPtr e = expr::parse_expression(ts);
  if (!ts.done()) throw Error("trailing input in '" + text + "'");
  return e;
}

/// Condition-shaped workloads over slots {x, y, z} — the mix a reaction's
/// `where` clause sees: comparisons, mod-tests, short-circuit chains.
struct Workload {
  const char* name;
  const char* source;
};
constexpr Workload kWorkloads[] = {
    {"cmp", "x < y"},
    {"and_chain", "x < y and y < z and x + 1 < z"},
    {"mod_parity", "x % 2 == y % 2 or z % 3 == 0"},
    {"arith_cmp", "(x + y) * 2 - z > x * 3 or x == z"},
    {"poly_mod", "(x * x + y * y - z * z) % 7 == (x + y + z) % 5"},
};

/// Rotating operand sets so neither path degenerates into a single hot
/// branch; the same sequence feeds both evaluators.
constexpr std::int64_t kOperands[][3] = {
    {3, 8, 12}, {9, 2, 40}, {7, 7, 14}, {15, 4, 1}, {6, 11, 35}, {2, 3, 5},
};
constexpr std::size_t kSets = sizeof(kOperands) / sizeof(kOperands[0]);

constexpr int kEvals = 200'000;

template <typename Body>
double ns_per_eval(const Body& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvals; ++i) body(static_cast<std::size_t>(i) % kSets);
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::nano>(dt).count() / kEvals;
}

void verify() {
  bench::header(
      "E12 — bytecode compilation ablation (register VM vs AST walker)",
      "claim: compiled conditions/actions evaluate faster, with results "
      "identical by construction");

  static const std::vector<std::string> kSlots = {"x", "y", "z"};
  MetricsSnapshot metrics;
  bench::Table table(
      {"workload", "ast_ns", "vm_ns", "speedup", "instrs", "agree"});

  double log_sum = 0.0;
  std::size_t measured = 0;
  for (const Workload& w : kWorkloads) {
    const expr::ExprPtr e = parse_expr(w.source);
    const expr::Chunk chunk = expr::compile(e, kSlots);

    // Pre-bind one Env and one slot array per operand set; the loops below
    // only evaluate, so the comparison isolates walker-vs-VM dispatch.
    std::vector<expr::Env> envs;
    std::vector<std::array<Value, 3>> slot_vals(kSets);
    for (std::size_t s = 0; s < kSets; ++s) {
      expr::Env env;
      for (std::size_t v = 0; v < 3; ++v) {
        env.bind(kSlots[v], Value(kOperands[s][v]));
        slot_vals[s][v] = Value(kOperands[s][v]);
      }
      envs.push_back(std::move(env));
    }

    bool agree = true;
    expr::Vm check_vm;
    for (std::size_t s = 0; s < kSets; ++s) {
      const Value* slots[3] = {&slot_vals[s][0], &slot_vals[s][1],
                               &slot_vals[s][2]};
      if (!(expr::eval(e, envs[s]) == check_vm.run(chunk, slots))) {
        agree = false;
      }
    }

    const double ast_ns = ns_per_eval([&](std::size_t s) {
      benchmark::DoNotOptimize(expr::eval(e, envs[s]));
    });
    expr::Vm vm;
    const double vm_ns = ns_per_eval([&](std::size_t s) {
      const Value* slots[3] = {&slot_vals[s][0], &slot_vals[s][1],
                               &slot_vals[s][2]};
      benchmark::DoNotOptimize(vm.run(chunk, slots));
    });
    const double speedup = ast_ns / vm_ns;
    log_sum += std::log(speedup);
    ++measured;

    std::ostringstream sp;
    sp.precision(3);
    sp << speedup << 'x';
    table.row(w.name, static_cast<std::int64_t>(ast_ns),
              static_cast<std::int64_t>(vm_ns), sp.str(), chunk.code.size(),
              agree ? "yes" : "NO");
    metrics.counters["bytecode.ast_ns." + std::string(w.name)] =
        static_cast<std::uint64_t>(ast_ns);
    metrics.counters["bytecode.vm_ns." + std::string(w.name)] =
        static_cast<std::uint64_t>(vm_ns);
    metrics.counters["bytecode.speedup_milli." + std::string(w.name)] =
        static_cast<std::uint64_t>(speedup * 1000.0);
    if (!agree) {
      std::cerr << "FATAL: VM disagrees with walker on " << w.name << '\n';
      std::exit(1);
    }
  }
  const double geomean = std::exp(log_sum / static_cast<double>(measured));
  std::ostringstream gm;
  gm.precision(3);
  gm << geomean << 'x';
  table.row("geomean", "", "", gm.str(), "", "");
  metrics.counters["bytecode.geomean_speedup_milli"] =
      static_cast<std::uint64_t>(geomean * 1000.0);

  // Batch backend (E18): the same conditions over a 4096-lane column — slot
  // x varies per lane, y/z broadcast, exactly the shape the match pipeline
  // feeds it (innermost binder = column, outer binders = scalars). The
  // bitmap must agree with the scalar VM on every lane; the timed loop then
  // compares amortized per-lane latency against scalar per-eval latency.
  {
    std::cout << "\nbatch backend: x as a 4096-lane column, y/z broadcast\n";
    bench::Table btable(
        {"workload", "vm_ns", "batch_ns_lane", "speedup", "fused", "agree"});
    constexpr std::size_t kLanes = 4096;
    constexpr std::array<std::uint8_t, 3> kVec = {1, 0, 0};
    std::vector<std::int64_t> col(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      col[i] = static_cast<std::int64_t>(i % 97) - 11;
    }
    const std::int64_t yv = 8, zv = 12;
    double blog_sum = 0.0;
    std::size_t bmeasured = 0;
    for (const Workload& w : kWorkloads) {
      const expr::Chunk chunk = expr::compile(parse_expr(w.source), kSlots);
      const auto bchunk = expr::compile_batch(chunk, kVec);
      if (!bchunk) {
        std::cerr << "FATAL: int-only workload " << w.name
                  << " refused by compile_batch\n";
        std::exit(1);
      }
      std::array<expr::BatchVm::SlotInput, 3> slots{};
      slots[0].column = col.data();
      slots[1].scalar = yv;
      slots[2].scalar = zv;
      expr::BatchVm bvm;
      std::vector<std::uint8_t> bits;
      if (!bvm.run(*bchunk, slots, kLanes, bits)) {
        std::cerr << "FATAL: batch run aborted on " << w.name << '\n';
        std::exit(1);
      }
      bool agree = true;
      expr::Vm check_vm;
      const Value y{yv}, z{zv};
      for (std::size_t i = 0; i < kLanes; ++i) {
        const Value x{col[i]};
        const Value* sv[3] = {&x, &y, &z};
        if (check_vm.run(chunk, sv).truthy() != (bits[i] != 0)) {
          agree = false;
        }
      }

      expr::Vm vm;
      const double vm_ns = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        constexpr int kReps = 16;
        for (int rep = 0; rep < kReps; ++rep) {
          for (std::size_t i = 0; i < kLanes; ++i) {
            const Value x{col[i]};
            const Value* sv[3] = {&x, &y, &z};
            benchmark::DoNotOptimize(vm.run(chunk, sv));
          }
        }
        const auto dt = std::chrono::steady_clock::now() - t0;
        return std::chrono::duration<double, std::nano>(dt).count() / kReps /
               static_cast<double>(kLanes);
      }();
      const double batch_ns = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        constexpr int kReps = 64;
        for (int rep = 0; rep < kReps; ++rep) {
          benchmark::DoNotOptimize(bvm.run(*bchunk, slots, kLanes, bits));
        }
        const auto dt = std::chrono::steady_clock::now() - t0;
        return std::chrono::duration<double, std::nano>(dt).count() / kReps /
               static_cast<double>(kLanes);
      }();
      const double speedup = vm_ns / batch_ns;
      blog_sum += std::log(speedup);
      ++bmeasured;

      std::ostringstream sp, bn;
      sp.precision(3);
      sp << speedup << 'x';
      bn.precision(3);
      bn << batch_ns;
      btable.row(w.name, static_cast<std::int64_t>(vm_ns), bn.str(), sp.str(),
                 bchunk->fused_loads, agree ? "yes" : "NO");
      metrics.counters["bytecode.batch_lane_ps." + std::string(w.name)] =
          static_cast<std::uint64_t>(batch_ns * 1000.0);
      metrics.counters["bytecode.batch_speedup_milli." + std::string(w.name)] =
          static_cast<std::uint64_t>(speedup * 1000.0);
      if (!agree) {
        std::cerr << "FATAL: batch bitmap disagrees with scalar VM on "
                  << w.name << '\n';
        std::exit(1);
      }
    }
    const double bgeomean =
        std::exp(blog_sum / static_cast<double>(bmeasured));
    std::ostringstream bgm;
    bgm.precision(3);
    bgm << bgeomean << 'x';
    btable.row("geomean", "", "", bgm.str(), "", "");
    metrics.counters["bytecode.batch_geomean_speedup_milli"] =
        static_cast<std::uint64_t>(bgeomean * 1000.0);
  }

  bench::metrics_json(std::cout, "bytecode", metrics);
}

void BM_Cond_Ast(benchmark::State& state) {
  const expr::ExprPtr e = parse_expr(kWorkloads[1].source);
  expr::Env env;
  env.bind("x", Value(std::int64_t{3}));
  env.bind("y", Value(std::int64_t{8}));
  env.bind("z", Value(std::int64_t{12}));
  for (auto _ : state) benchmark::DoNotOptimize(expr::eval(e, env));
}
BENCHMARK(BM_Cond_Ast)->Unit(benchmark::kNanosecond);

void BM_Cond_Vm(benchmark::State& state) {
  static const std::vector<std::string> kSlots = {"x", "y", "z"};
  const expr::Chunk chunk = expr::compile(parse_expr(kWorkloads[1].source),
                                          kSlots);
  const Value x{std::int64_t{3}}, y{std::int64_t{8}}, z{std::int64_t{12}};
  const Value* slots[3] = {&x, &y, &z};
  expr::Vm vm;
  for (auto _ : state) benchmark::DoNotOptimize(vm.run(chunk, slots));
}
BENCHMARK(BM_Cond_Vm)->Unit(benchmark::kNanosecond);

/// Whole-batch bitmap evaluation: items/s counts LANES, so this is directly
/// comparable with BM_Cond_Vm's per-eval rate.
void BM_Cond_Batch(benchmark::State& state) {
  static const std::vector<std::string> kSlots = {"x", "y", "z"};
  const expr::Chunk chunk = expr::compile(parse_expr(kWorkloads[1].source),
                                          kSlots);
  constexpr std::array<std::uint8_t, 3> kVec = {1, 0, 0};
  const auto bchunk = expr::compile_batch(chunk, kVec);
  std::vector<std::int64_t> col(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < col.size(); ++i) {
    col[i] = static_cast<std::int64_t>(i % 97) - 11;
  }
  std::array<expr::BatchVm::SlotInput, 3> slots{};
  slots[0].column = col.data();
  slots[1].scalar = 8;
  slots[2].scalar = 12;
  expr::BatchVm vm;
  std::vector<std::uint8_t> bits;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.run(*bchunk, slots, col.size(), bits));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Cond_Batch)
    ->RangeMultiplier(8)
    ->Range(8, 4096)
    ->Unit(benchmark::kNanosecond);

void BM_Rungamma_Min(benchmark::State& state) {
  const gamma::Program program =
      gamma::dsl::parse_program("Rmin = replace x, y by x where x < y");
  gamma::Multiset initial;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    initial.add(gamma::Element{Value((i * 2654435761) % 10'000)});
  }
  gamma::RunOptions ropts;
  ropts.seed = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gamma::IndexedEngine().run(program, initial, ropts));
  }
}
BENCHMARK(BM_Rungamma_Min)
    ->Arg(64)
    ->Arg(256)
    ->ArgName("n")
    ->Unit(benchmark::kMillisecond);

}  // namespace

GF_BENCH_MAIN(verify)
