// The indexed stage policy, written once: run one stage's reactions over one
// store to the store's fixed point. IndexedEngine runs it on the whole store;
// ParallelEngine runs it on each part of its partition and again at every
// merge level (DESIGN §10.2); each node of the distributed cluster runs it on
// its shard, a round's worth of fires at a time (DESIGN §6). The serve
// worklist (runtime/worklist.hpp) drives the same per-reaction kernel from
// its dirty queue instead of the shuffled passes (DESIGN §14).
//
// The kernel, fire_while_enabled, is the step of Eq. (1): fire one reaction
// while it stays enabled, until a failed find proves it disabled (the index
// search is exhaustive) or the gate stops it. Each reaction keeps a
// runtime::MatchSite for the store: its literals pinned there, the Match and
// Frame every find fills in place, and an AnchorMemo, so a re-probe skips
// the candidates an earlier failed sweep already ruled out (DESIGN §15.5,
// §15.6).
//
// The policy: shuffled passes over the reactions, running the kernel on each;
// a full pass with no fire is the fixed-point proof.
//
// What differs between the callers is the gate: when to stop, whether the
// next fire is within budget, and where a fire is journaled. A Gate provides
//   bool running();        // false once the run has stopped
//   bool should_stop();    // cooperative stop probe, once per fire
//   bool admit(const Store&, const Match&);  // budget gate for a found
//                                            // match, before its commit;
//                                            // counts it
//   const runtime::RecordCtx* record();  // journal target, null when off
//   void pass_done(const Store&, std::uint64_t pass_fires);
// The kernel itself uses only should_stop, admit and record.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/gamma/reaction.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::gamma {

/// The policy's state over one store: one MatchSite (with its AnchorMemo)
/// and one fire count per reaction of the stage (by stage position), plus
/// the probe counters behind the `gamma.*` metrics. The sites belong to
/// that store.
struct StageMemory {
  explicit StageMemory(std::size_t reactions)
      : sites(reactions), fires(reactions, 0) {}

  [[nodiscard]] std::uint64_t anchor_skips() const noexcept {
    std::uint64_t skips = 0;
    for (const runtime::MatchSite& site : sites) skips += site.memo().skips();
    return skips;
  }

  std::vector<runtime::MatchSite> sites;
  std::vector<std::uint64_t> fires;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t passes = 0;
};

/// Telemetry the policy writes; null members when telemetry is off.
struct StageObs {
  StageObs(obs::Telemetry* t, obs::ThreadRecorder* r,
           const std::vector<Reaction>& stage)
      : tel(t), rec(r) {
    if (tel == nullptr) return;
    // Resolved once, so no string is built on the fire path.
    fire_hist.reserve(stage.size());
    for (const Reaction& reaction : stage) {
      fire_hist.push_back(&tel->stats().hist("gamma.fire_us." +
                                             reaction.name()));
    }
  }

  obs::Telemetry* tel;
  obs::ThreadRecorder* rec;  // this thread's span recorder
  std::vector<Histogram*> fire_hist;  // by stage position
};

/// A single-threaded StepLoop as the gate of IndexedEngine and the serve
/// worklist. `steps` is the fire count the budget is checked against; a
/// pass that fired journals one round, the granularity the viz scrubber
/// steps through for IndexedEngine.
class LoopGate {
 public:
  LoopGate(runtime::StepLoop& loop, std::uint64_t& steps,
           const runtime::RunRecording& recording, std::size_t stage_idx)
      : loop_(loop),
        steps_(steps),
        recording_(recording),
        ctx_(recording.ctx(static_cast<std::int64_t>(stage_idx))) {}

  [[nodiscard]] bool running() const noexcept { return loop_.running(); }
  [[nodiscard]] bool should_stop() { return loop_.should_stop(); }
  [[nodiscard]] bool admit(const Store& /*store*/, const Match& /*match*/) {
    if (!loop_.admit(steps_)) return false;
    ++steps_;
    return true;
  }
  [[nodiscard]] const runtime::RecordCtx* record() const noexcept {
    return recording_ ? &ctx_ : nullptr;
  }
  void pass_done(const Store& store, std::uint64_t pass_fires) const {
    if (recording_ && pass_fires > 0) recording_.round(store);
  }

 private:
  runtime::StepLoop& loop_;
  std::uint64_t& steps_;
  const runtime::RunRecording& recording_;
  runtime::RecordCtx ctx_;
};

/// Fires `stage[idx]` while it stays enabled. Each attempt finds a match
/// into the reaction's MatchSite, passes it through `gate.admit`, commits
/// it to `gate.record()`, then calls `on_fire(match)`. Returns true when a
/// failed find proved the reaction disabled, false when the gate stopped it
/// first (it may then still be enabled). `rng` drives every pick.
template <typename Gate, typename OnFire>
bool fire_while_enabled(Store& store, const std::vector<Reaction>& stage,
                        std::size_t idx, Rng& rng, StageMemory& mem,
                        const StageObs& ob, Gate& gate, OnFire&& on_fire) {
  obs::Telemetry* const tel = ob.tel;
  const Reaction& r = stage[idx];
  runtime::MatchSite& site = mem.sites[idx];
  const Match& match = site.match();
  while (!gate.should_stop()) {
    const std::uint64_t fire_start = tel ? tel->now_us() : 0;
    const bool found = runtime::MatchPipeline::find(store, r, &rng, site);
    ++mem.attempts;
    if (!found) {
      ++mem.failures;
      return true;
    }
    if (!gate.admit(store, match)) return false;
    ++mem.fires[idx];
    runtime::MatchPipeline::commit(store, match, gate.record());
    if (tel) {
      ob.fire_hist[idx]->observe(
          static_cast<double>(tel->now_us() - fire_start));
    }
    on_fire(match);
  }
  return false;
}

/// Runs `stage` over `store` to its fixed point, or until the gate stops
/// it. `rng` drives every shuffle and pick.
template <typename Gate>
void run_stage_fixpoint(Store& store, const std::vector<Reaction>& stage,
                        Rng& rng, StageMemory& mem, const StageObs& ob,
                        Gate& gate) {
  std::vector<std::size_t> order(stage.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  bool progressed = true;
  while (progressed && gate.running()) {
    ++mem.passes;
    obs::Span pass_span(ob.tel, ob.rec, "pass");
    std::uint64_t pass_fires = 0;
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t idx : order) {
      if (!gate.running()) break;
      // Firing a reaction while it stays enabled is cheaper than
      // re-shuffling after every step; the shuffled pass restores fairness
      // across reactions.
      fire_while_enabled(store, stage, idx, rng, mem, ob, gate,
                         [&pass_fires](const Match&) { ++pass_fires; });
    }
    pass_span.set_arg(pass_fires);
    gate.pass_done(store, pass_fires);
    progressed = pass_fires > 0;
  }
}

}  // namespace gammaflow::gamma
