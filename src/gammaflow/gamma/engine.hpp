// Engine interface: run a Gamma Program on an initial Multiset to the global
// termination state (no reaction condition holds on any element tuple) and
// return the final multiset plus execution statistics.
//
// Three implementations with identical observable semantics on confluent
// programs (every program Algorithm 1 emits is confluent because the source
// dataflow graph is deterministic):
//   SequentialEngine — Eq. (1) executed literally: each step picks uniformly
//     among ALL currently enabled matches. The semantic reference; O(matches)
//     per step, use on small multisets.
//   IndexedEngine    — index-guided first-match selection with randomized
//     probe order. The fast single-threaded engine.
//   ParallelEngine   — partition -> local fixpoint -> merge: per stage the
//     multiset is dealt round-robin into `workers` parts, each part runs
//     the indexed stage policy to its own fixed point on its own thread,
//     and parts merge pairwise, rerunning the policy at every level, until
//     one store holds the stage (DESIGN §10.2). A completed run is a
//     function of (seed, program, initial, workers).
//
// All three are thin policies over runtime::StepLoop / MatchPipeline; the
// deadline/cancel/budget/telemetry scaffolding lives there, shared with the
// dataflow engines and the distributed cluster.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::gamma {

struct RunOptions : runtime::RunOptions {
  /// Seed for every nondeterministic choice; same seed => same run for the
  /// deterministic engines.
  std::uint64_t seed = 1;
  /// Firing budget across all stages; exceeded => EngineError (guards
  /// non-terminating programs).
  std::uint64_t max_steps = 50'000'000;
  /// SequentialEngine only: cap on enabled matches enumerated per step; the
  /// uniform choice is over the first `uniform_cap` found.
  std::size_t uniform_cap = 4096;
};

struct RunResult {
  Multiset final_multiset;
  /// Why the run returned. Anything but Completed means final_multiset is
  /// the valid PARTIAL state at the stop point, not the fixed point.
  Outcome outcome = Outcome::Completed;
  /// Total reactions fired.
  std::uint64_t steps = 0;
  std::map<std::string, std::uint64_t> fires_by_reaction;
  /// Engine-internal metrics (match attempts, conflicts, latencies, ...);
  /// empty unless RunOptions::telemetry was set.
  MetricsSnapshot metrics;
  double wall_seconds = 0.0;
};

class Engine {
 public:
  virtual ~Engine() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual RunResult run(const Program& program,
                                      const Multiset& initial,
                                      const RunOptions& options) const = 0;

  [[nodiscard]] RunResult run(const Program& program,
                              const Multiset& initial) const {
    return run(program, initial, RunOptions{});
  }
};

class SequentialEngine final : public Engine {
 public:
  using Engine::run;
  [[nodiscard]] std::string name() const override { return "sequential"; }
  [[nodiscard]] RunResult run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const override;
};

class IndexedEngine final : public Engine {
 public:
  using Engine::run;
  [[nodiscard]] std::string name() const override { return "indexed"; }
  [[nodiscard]] RunResult run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const override;
};

class ParallelEngine final : public Engine {
 public:
  using Engine::run;
  [[nodiscard]] std::string name() const override { return "parallel"; }
  [[nodiscard]] RunResult run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const override;
};

}  // namespace gammaflow::gamma
