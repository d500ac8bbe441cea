// SequentialEngine: the Γ operator of Eq. (1) executed literally. Each step
// enumerates the enabled matches of every reaction in the current stage and
// fires ONE chosen uniformly at random — the closest executable rendering of
// "let x1..xn ∈ M, let i ∈ [1,m] such that Ri(x1..xn)" with a fair
// nondeterministic choice. Quadratic-ish per step; the semantic oracle the
// other engines are tested against. All scaffolding (deadline, cancel,
// budget, recorder, telemetry tail) lives in runtime::StepLoop & friends —
// this file is pure match-selection policy.
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::gamma {

RunResult SequentialEngine::run(const Program& program, const Multiset& initial,
                                const RunOptions& options) const {
  RunResult result;
  Rng rng(options.seed);
  Store store(initial, FieldSet::of(program));

  runtime::StepLoop loop(options, options.max_steps, "sequential engine",
                         "max_steps");
  const runtime::RunRecording recording(options, "sequential", "gamma");
  recording.begin(initial);
  const runtime::EngineTelemetry telemetry(options, "gamma");
  obs::Telemetry* const tel = telemetry.sink();
  obs::ThreadRecorder* const rec = telemetry.recorder("gamma-sequential");
  Histogram* const enabled_hist =
      tel ? &tel->stats().hist("gamma.enabled_matches") : nullptr;
  std::uint64_t attempts = 0;
  // Reused across steps: once it has grown, gathering allocates nothing.
  std::vector<Match> matches;

  for (std::size_t stage_idx = 0;
       stage_idx < program.stages().size() && loop.running(); ++stage_idx) {
    const auto& stage = program.stages()[stage_idx];
    std::vector<std::uint64_t> fires(stage.size(), 0);
    while (!loop.should_stop()) {
      obs::Span step_span(tel, rec, "step");
      // Gather the enabled matches of every reaction, capped for safety on
      // large multisets. The cap is per step, re-enumerated from scratch, so
      // no stale match is ever fired.
      matches.clear();
      for (const Reaction& r : stage) {
        ++attempts;
        runtime::MatchPipeline::enumerate(
            store, r, options.uniform_cap - matches.size(),
            [&](const Match& m) {
              matches.push_back(m);
              return matches.size() < options.uniform_cap;
            });
        if (matches.size() >= options.uniform_cap) break;
      }
      if (tel) enabled_hist->observe(static_cast<double>(matches.size()));
      if (matches.empty()) break;  // stage fixed point
      step_span.set_arg(matches.size());

      const Match& chosen =
          matches[static_cast<std::size_t>(rng.bounded(matches.size()))];
      if (!loop.admit(result.steps)) break;
      ++fires[static_cast<std::size_t>(chosen.reaction - stage.data())];
      ++result.steps;
      const runtime::RecordCtx rctx =
          recording.ctx(static_cast<std::int64_t>(stage_idx));
      runtime::MatchPipeline::commit(store, chosen,
                                     recording ? &rctx : nullptr);
    }
    runtime::add_fires(stage, fires, result.fires_by_reaction);
    // One journal round per stage fixed point: the store the next stage
    // starts from.
    if (recording) recording.round(store);
  }

  if (tel) {
    auto& stats = tel->stats();
    stats.count("gamma.match_attempts", attempts);
    stats.count("gamma.fires", result.steps);
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
