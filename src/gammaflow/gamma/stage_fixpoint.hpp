// The indexed stage policy, written once: run one stage's reactions over one
// store to the store's fixed point. IndexedEngine runs it on the whole store;
// ParallelEngine runs it on each part of its partition and again at every
// merge level (DESIGN §10.2); each node of the distributed cluster runs it on
// its shard, a round's worth of fires at a time (DESIGN §6).
//
// The policy: shuffled passes over the reactions, firing each one while it
// stays enabled; a full pass with no fire is the fixed-point proof (the
// index search is exhaustive). Each reaction keeps an AnchorMemo for the
// store, so a re-probe skips the candidates an earlier failed sweep already
// ruled out (DESIGN §15.5).
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

namespace gammaflow::gamma {

/// The policy's state over one store: one AnchorMemo and one fire count per
/// reaction of the stage (by stage position), plus the probe counters
/// behind the `gamma.*` metrics. The memos belong to that store.
struct StageMemory {
  explicit StageMemory(std::size_t reactions)
      : memos(reactions), fires(reactions, 0) {}

  [[nodiscard]] std::uint64_t anchor_skips() const noexcept {
    std::uint64_t skips = 0;
    for (const runtime::AnchorMemo& memo : memos) skips += memo.skips();
    return skips;
  }

  std::vector<runtime::AnchorMemo> memos;
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

/// Runs `stage` over `store` to its fixed point, or until the gate stops
/// it. `rng` drives every shuffle and pick.
template <typename Gate>
void run_stage_fixpoint(Store& store, const std::vector<Reaction>& stage,
                        Rng& rng, StageMemory& mem, const StageObs& ob,
                        Gate& gate) {
  obs::Telemetry* const tel = ob.tel;
  std::vector<std::size_t> order(stage.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  bool progressed = true;
  while (progressed && gate.running()) {
    progressed = false;
    ++mem.passes;
    obs::Span pass_span(tel, ob.rec, "pass");
    std::uint64_t pass_fires = 0;
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t idx : order) {
      if (!gate.running()) break;
      const Reaction& r = stage[idx];
      // Fire this reaction repeatedly while it stays enabled: cheaper
      // than re-shuffling after every step, and fairness across
      // reactions is restored by the shuffled outer pass.
      while (!gate.should_stop()) {
        const std::uint64_t fire_start = tel ? tel->now_us() : 0;
        auto match =
            runtime::MatchPipeline::find(store, r, &rng, &mem.memos[idx]);
        ++mem.attempts;
        if (!match) {
          ++mem.failures;
          break;
        }
        if (!gate.admit(store, *match)) break;
        ++mem.fires[idx];
        runtime::MatchPipeline::commit(store, *match, gate.record());
        progressed = true;
        ++pass_fires;
        if (tel) {
          ob.fire_hist[idx]->observe(
              static_cast<double>(tel->now_us() - fire_start));
        }
      }
    }
    pass_span.set_arg(pass_fires);
    gate.pass_done(store, pass_fires);
  }
}

}  // namespace gammaflow::gamma
