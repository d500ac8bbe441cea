// The run-loop scaffolding every engine used to copy-paste, extracted once:
//
//   StepLoop        — single-threaded driver state: one governor (cancel +
//                     deadline), the firing budget with its LimitPolicy, the
//                     sticky Outcome, and the wall clock. The sequential and
//                     indexed Gamma engines, the dataflow interpreter, and
//                     the cluster's round loop are thin policies over it.
//   StopFlag        — the multithreaded analogue of StepLoop's sticky
//                     outcome: first publisher wins, workers poll one atomic.
//   InFlight        — token/message in-flight counting (the dataflow
//                     ParallelEngine's quiescence condition; the distributed
//                     cluster's Safra counters are the per-node refinement).
//   EngineTelemetry — the end-of-run metric tail every engine emits the same
//                     way: "<domain>.outcome.*", the "vm.instrs_executed"
//                     delta, and the registry snapshot.
//
// The engines keep only what genuinely differs between them: match-selection
// order, commit strategy, and worker topology.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "gammaflow/common/cancel.hpp"
#include "gammaflow/common/error.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::obs {
class Telemetry;
class ThreadRecorder;
class RunRecorder;
}  // namespace gammaflow::obs

namespace gammaflow::gamma {
class Multiset;
class Store;
}  // namespace gammaflow::gamma

namespace gammaflow::runtime {

/// Shared budget gate. True to proceed with the (fired+1)-th firing; at the
/// budget, throws EngineError("<engine> exceeded <knob>=<budget>") under
/// LimitPolicy::Throw and returns false under Partial (the caller records
/// Outcome::BudgetExhausted and winds down with valid partial state).
[[nodiscard]] bool admit_step(LimitPolicy policy, std::uint64_t fired,
                              std::uint64_t budget, const char* engine,
                              const char* knob);

/// Single-threaded engine driver. Not thread-safe: parallel engines hold one
/// on the coordinating thread and hand workers make_governor() + a StopFlag.
class StepLoop {
 public:
  StepLoop(const RunOptions& options, std::uint64_t budget,
           const char* engine_name, const char* budget_knob) noexcept
      : t0_(std::chrono::steady_clock::now()),
        deadline_(deadline_from_now(options.deadline)),
        governor_(options.cancel, deadline_),
        engine_(engine_name),
        knob_(budget_knob),
        budget_(budget),
        policy_(options.limit_policy) {}

  /// Cooperative stop probe (cancel, then deadline); sticky via stop().
  [[nodiscard]] bool should_stop() {
    if (outcome_ != Outcome::Completed) return true;
    if (governor_.should_stop()) {
      outcome_ = governor_.outcome();
      return true;
    }
    return false;
  }

  /// Budget gate for the (fired+1)-th firing; see admit_step.
  [[nodiscard]] bool admit(std::uint64_t fired) {
    if (admit_step(policy_, fired, budget_, engine_, knob_)) return true;
    stop(Outcome::BudgetExhausted);
    return false;
  }

  /// Records an early-stop reason; first writer wins, Completed is a no-op.
  void stop(Outcome outcome) noexcept {
    if (outcome_ == Outcome::Completed) outcome_ = outcome;
  }

  [[nodiscard]] bool running() const noexcept {
    return outcome_ == Outcome::Completed;
  }
  [[nodiscard]] Outcome outcome() const noexcept { return outcome_; }

  /// The absolute deadline all of this run's governors share.
  [[nodiscard]] std::chrono::steady_clock::time_point deadline()
      const noexcept {
    return deadline_;
  }
  /// A fresh per-worker-thread governor sharing this run's token + deadline.
  [[nodiscard]] RunGovernor make_governor(
      const RunOptions& options) const noexcept {
    return RunGovernor(options.cancel, deadline_);
  }

  /// Elapsed wall clock since construction (RunResult::wall_seconds).
  [[nodiscard]] double wall_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
  std::chrono::steady_clock::time_point deadline_;
  RunGovernor governor_;
  const char* engine_;
  const char* knob_;
  std::uint64_t budget_;
  LimitPolicy policy_;
  Outcome outcome_ = Outcome::Completed;
};

/// One-shot outcome publication across a run's worker threads. Workers poll
/// stopped() in their loops; the first to observe a stop condition publishes
/// it and everyone (including the join side) reads one agreed Outcome.
class StopFlag {
 public:
  [[nodiscard]] bool stopped() const noexcept {
    return state_.load(std::memory_order_acquire) != 0;
  }
  [[nodiscard]] Outcome outcome() const noexcept {
    return static_cast<Outcome>(state_.load(std::memory_order_acquire));
  }
  /// First publisher wins; publishing Completed is a no-op (Completed is the
  /// default, not a stop reason).
  void publish(Outcome outcome) noexcept {
    std::uint8_t expected = 0;
    state_.compare_exchange_strong(expected,
                                   static_cast<std::uint8_t>(outcome),
                                   std::memory_order_acq_rel);
  }

 private:
  static_assert(static_cast<std::uint8_t>(Outcome::Completed) == 0,
                "StopFlag encodes 'no stop' as Outcome::Completed");
  std::atomic<std::uint8_t> state_{0};
};

/// Atomic in-flight counter: covers every token/message that is queued or
/// being absorbed. Zero means no work exists and none can be created — the
/// dataflow quiescence condition.
class InFlight {
 public:
  void add(std::int64_t n = 1) noexcept {
    count_.fetch_add(n, std::memory_order_acq_rel);
  }
  void sub(std::int64_t n = 1) noexcept {
    count_.fetch_sub(n, std::memory_order_acq_rel);
  }
  [[nodiscard]] bool idle() const noexcept {
    return count_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::atomic<std::int64_t> count_{0};
};

/// The end-of-run telemetry tail every engine emits identically, null-safe
/// throughout (a disabled sink costs one pointer test per call):
///   "<domain>.outcome.<why>"     — one count per run
///   "vm.instrs_executed"         — delta since construction
///   "vm.batch_evals"             — BatchVm chunk evaluations (delta)
///   "vm.batch_lanes"             — lanes those evaluations covered (delta)
///   "vm.batch_width"             — histogram of batch chunk widths (delta)
///   "store.column_compactions"   — column-group compaction passes (delta)
/// finish() snapshots the registry into the result's MetricsSnapshot.
class EngineTelemetry {
 public:
  /// `domain` is the metric prefix: "gamma", "df", or "distrib".
  EngineTelemetry(const RunOptions& options, const char* domain);

  [[nodiscard]] explicit operator bool() const noexcept {
    return tel_ != nullptr;
  }
  /// The raw sink (null when telemetry is off) for engine-specific metrics —
  /// those are policy, not scaffolding, and stay in the engines.
  [[nodiscard]] obs::Telemetry* sink() const noexcept { return tel_; }
  /// Registers/returns the per-thread span recorder; null when disabled.
  [[nodiscard]] obs::ThreadRecorder* recorder(const std::string& name) const;

  void finish(Outcome outcome, MetricsSnapshot& out) const;

 private:
  obs::Telemetry* tel_;
  const char* domain_;
  std::uint64_t instrs0_ = 0;
  std::uint64_t batch_evals0_ = 0;
  std::uint64_t batch_lanes0_ = 0;
  std::array<std::uint64_t, expr::kBatchWidthBuckets> batch_width0_{};
  std::uint64_t compactions0_ = 0;
};

/// The RunOptions::record scaffolding every Gamma-family engine shares, the
/// recorder analogue of EngineTelemetry: null-safe begin / round / finish
/// over gamma multisets (the recorder itself speaks strings; the conversion
/// lives here because gf_obs must not depend on gf_gamma). ctx() builds the
/// RecordCtx a commit site hands MatchPipeline::commit.
class RunRecording {
 public:
  /// `engine` is the engine name ("sequential", "cluster", ...); `kind` the
  /// model family the viz renderer switches on ("gamma" | "distrib").
  RunRecording(const RunOptions& options, const char* engine,
               const char* kind) noexcept
      : rec_(options.record), engine_(engine), kind_(kind) {}

  [[nodiscard]] explicit operator bool() const noexcept {
    return rec_ != nullptr;
  }
  [[nodiscard]] obs::RunRecorder* sink() const noexcept { return rec_; }
  [[nodiscard]] RecordCtx ctx(std::int64_t stage = -1,
                              std::int64_t shard = -1,
                              std::int64_t node = -1) const noexcept {
    return RecordCtx{rec_, stage, shard, node};
  }

  void begin(const gamma::Multiset& initial) const;
  void round(const gamma::Multiset& store) const;
  void round(const gamma::Store& store) const;
  void finish(Outcome outcome, const gamma::Multiset& final_store) const;

 private:
  obs::RunRecorder* rec_;
  const char* engine_;
  const char* kind_;
};

/// Canonical string->count rendering of a multiset (journal snapshots).
[[nodiscard]] std::map<std::string, std::int64_t> store_counts(
    const gamma::Multiset& ms);

}  // namespace gammaflow::runtime
