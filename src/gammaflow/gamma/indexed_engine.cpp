// IndexedEngine: the fast single-threaded engine. Each stage runs the
// indexed stage policy (gamma/stage_fixpoint.hpp) over one store: seeded
// shuffled passes, each reaction fired while enabled through the label/arity
// indexes, a pass with no fire as the fixed-point proof. Scaffolding
// (deadline, cancel, budget, recorder, telemetry tail) comes from
// runtime::StepLoop & friends, through the policy's LoopGate.
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/stage_fixpoint.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::gamma {

RunResult IndexedEngine::run(const Program& program, const Multiset& initial,
                             const RunOptions& options) const {
  RunResult result;
  Rng rng(options.seed);
  Store store(initial, FieldSet::of(program));

  runtime::StepLoop loop(options, options.max_steps, "indexed engine",
                         "max_steps");
  const runtime::RunRecording recording(options, "indexed", "gamma");
  recording.begin(initial);
  const runtime::EngineTelemetry telemetry(options, "gamma");
  obs::Telemetry* const tel = telemetry.sink();
  obs::ThreadRecorder* const rec = telemetry.recorder("gamma-indexed");
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t passes = 0;
  std::uint64_t anchor_skips = 0;

  for (std::size_t stage_idx = 0;
       stage_idx < program.stages().size() && loop.running(); ++stage_idx) {
    const auto& stage = program.stages()[stage_idx];
    StageMemory mem(stage.size());
    LoopGate gate(loop, result.steps, recording, stage_idx);
    run_stage_fixpoint(store, stage, rng, mem, StageObs(tel, rec, stage),
                       gate);
    attempts += mem.attempts;
    failures += mem.failures;
    passes += mem.passes;
    anchor_skips += mem.anchor_skips();
    runtime::add_fires(stage, mem.fires, result.fires_by_reaction);
  }

  if (tel) {
    auto& stats = tel->stats();
    stats.count("gamma.match_attempts", attempts);
    stats.count("gamma.match_failures", failures);
    stats.count("gamma.fires", result.steps);
    stats.count("gamma.passes", passes);
    stats.count("gamma.anchor_skips", anchor_skips);
    runtime::observe_reaction_compile(tel, program);
  }
  result.outcome = loop.outcome();
  telemetry.finish(result.outcome, result.metrics);
  result.final_multiset = store.to_multiset();
  recording.finish(result.outcome, result.final_multiset);
  result.wall_seconds = loop.wall_seconds();
  return result;
}

}  // namespace gammaflow::gamma
