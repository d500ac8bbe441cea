// Worklist-driven incremental fixpoint — the serving-side refinement of the
// engines' scan-to-quiescence loop. A batch engine proves the fixed point by
// an exhaustive pass over every reaction; a long-lived store cannot afford
// that after every injected element. This module keeps the store AT fixpoint
// and, when elements arrive, re-matches only the reactions whose consume-side
// footprint (gamma/footprint.hpp, the label recognizer the static passes in
// analysis/ share) can consume one of the new elements:
//
//   WakeupIndex   — label→reactions and arity→reactions maps inverted from
//                   each reaction's gamma::Footprint consume side (its
//                   produce side is not read), a key label indexed by its
//                   pinned symbol in the session's store; wake(e) returns
//                   exactly the reactions whose footprint admits element e.
//   IncrementalFixpoint — the driver: inject() inserts elements, wakes their
//                   footprint-matching reactions onto a dirty queue, and
//                   drains the queue to quiescence, one reaction at a time
//                   through the stage policy's kernel (gamma::
//                   fire_while_enabled: fire while enabled; its productions
//                   wake downstream consumers). An empty queue is a fixpoint
//                   PROOF, not a heuristic — see the invariant below.
//
// Equivalence obligation (DESIGN §14): the drain maintains the invariant
// "every reaction with an enabled match is dirty". Insertions wake every
// reaction whose footprint admits the element (the footprint is an
// over-approximation, so no enabling insert is missed); removals of consumed
// elements can only DISABLE matches (patterns are positive, conditions see
// only bound fields). Hence queue empty ⟹ no reaction has an enabled match
// ⟹ global fixpoint, and for confluent programs that fixpoint is the one
// the batch engines reach from the union of all injections — byte-identical,
// which test_serve checks on a randomized injection corpus. A caller that
// passes every reaction a footprint with `consume_any` set wakes them all
// on each insert: that is the whole-store baseline bench_serve and
// test_serve compare against, and no option of this module selects it.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gammaflow/common/cancel.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/footprint.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/gamma/stage_fixpoint.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/options.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::runtime {

/// Inverted index from element keys to the reactions they can wake, over
/// one store. Built once per session; wake() is O(woken reactions), not
/// O(all reactions), and finds a label by its cell, with no hash.
class WakeupIndex {
 public:
  /// Pins every consume label in `store` (Store::pin), so that a label of
  /// that store is found by its symbol id.
  WakeupIndex(const std::vector<gamma::Footprint>& footprints,
              gamma::Store& store);

  [[nodiscard]] std::size_t reaction_count() const noexcept {
    return reactions_;
  }

  /// Appends every reaction index whose footprint admits the live element
  /// `id` of `store`: the always-wake list, the label bucket of its field-1
  /// cell, and the arity bucket for its arity. A reaction keyed on both the
  /// label and the arity appears twice; callers dedup via their dirty
  /// flags.
  void wake(const gamma::Store& store, gamma::Store::Id id,
            std::vector<std::size_t>& out) const;
  /// The same for a fire's output tuple as Match::outputs holds it: cells
  /// of `store`, a kTextTag one indexing `texts`.
  void wake(const gamma::Store& store,
            std::span<const gamma::Store::Cell> fields,
            std::span<const Value> texts, std::vector<std::size_t>& out) const;

 private:
  /// Appends the always-wake list, the label bucket of `label` and the
  /// arity bucket of `arity`, in that order.
  void wake_by(gamma::Store::Cell label, std::size_t arity,
               std::vector<std::size_t>& out) const;

  std::size_t reactions_;
  /// Reactions keyed on each label, by the label's pinned symbol id (empty
  /// for any other id).
  std::vector<std::vector<std::size_t>> by_symbol_;
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_arity_;
  std::vector<std::size_t> always_;
};

/// Knobs for the incremental driver, extending the shared runtime base the
/// same way gamma::RunOptions does. `deadline` (inherited) bounds each
/// inject() call; `max_steps` is a LIFETIME firing budget across all
/// injections (the serve daemon's per-session budget).
struct WorklistOptions : RunOptions {
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 50'000'000;
};

/// Counters the daemon's stats verb and bench_serve report. `rematches` is
/// the number of MatchPipeline::find probes — the work the wakeup index
/// saves versus all-`consume_any` footprints; stats() reads it from the
/// session's StageMemory.
struct WorklistStats {
  std::uint64_t injected = 0;   // elements inserted via inject()
  std::uint64_t fires = 0;      // lifetime firings (vs. max_steps budget)
  std::uint64_t wakeups = 0;    // reactions enqueued onto the dirty queue
  std::uint64_t rematches = 0;  // MatchPipeline::find probes
  std::uint64_t injects = 0;    // inject() calls
};

/// Long-lived single-stage fixpoint driver over one Store. Construction
/// leaves the store empty and at (trivial) fixpoint; each inject() restores
/// the fixpoint incrementally and returns the outcome (Completed, or the
/// deadline/budget/cancel outcome under LimitPolicy::Partial — the store is
/// then a valid intermediate state and the next inject() resumes the drain).
///
/// Multi-stage programs are rejected (EngineError): `;` sequencing means
/// "run stage k to fixpoint, THEN stage k+1" — under streaming injection
/// stage k never finally quiesces, so the composition has no incremental
/// meaning. Serve sessions therefore host single-stage programs only.
class IncrementalFixpoint {
 public:
  IncrementalFixpoint(gamma::Program program,
                      const std::vector<gamma::Footprint>& footprints,
                      const WorklistOptions& options);

  /// Inserts the elements straight from their flat fields (no Element is
  /// built), wakes their footprint consumers, drains to quiescence.
  /// Deterministic for a given (program, seed, schedule).
  Outcome inject(const gamma::FlatElements& elements);

  [[nodiscard]] const gamma::Store& store() const noexcept { return store_; }
  [[nodiscard]] gamma::Multiset snapshot() const { return store_.to_multiset(); }
  [[nodiscard]] WorklistStats stats() const noexcept {
    WorklistStats s = stats_;
    s.rematches = mem_.attempts;
    return s;
  }
  /// Firings performed by the most recent inject() call.
  [[nodiscard]] std::uint64_t last_fires() const noexcept { return last_fires_; }

  /// Closes the run journal (no-op without RunOptions::record): outcome of
  /// the last inject, final store snapshot. The serve session calls this on
  /// close; idempotence is the caller's concern (close is called once).
  void finish_recording();

 private:
  void wake_queue();
  Outcome saturate(StepLoop& loop);

  gamma::Program program_;
  const std::vector<gamma::Reaction>* reactions_;  // into program_ stage 0
  WorklistOptions options_;
  gamma::Store store_;
  WakeupIndex index_;  // pins its labels in store_
  Rng rng_;
  std::deque<std::size_t> queue_;
  std::vector<char> dirty_;  // reaction index -> currently queued
  /// The stage policy's memory for the session: its AnchorMemos let the
  /// end-of-inject fixpoint proof re-sweep only the candidates inserted
  /// since each anchor last failed; its attempts are the rematches.
  gamma::StageMemory mem_;
  gamma::StageObs obs_;
  std::vector<std::size_t> wake_scratch_;
  WorklistStats stats_;  // rematches unused: read from mem_
  Outcome last_outcome_ = Outcome::Completed;
  std::uint64_t last_fires_ = 0;
  RunRecording recording_;
};

}  // namespace gammaflow::runtime
