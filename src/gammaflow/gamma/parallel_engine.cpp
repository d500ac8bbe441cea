// ParallelEngine: Gamma's "natural parallelism" as partition -> local
// fixpoint -> merge (DESIGN §10.2). Per stage:
//
//   partition — the stage's multiset is dealt round-robin, in its element
//     order, into `workers` part stores; each part gets an Rng split from
//     the run seed in part order;
//   local fixpoints — every part runs the indexed stage policy
//     (gamma/stage_fixpoint.hpp) to its own fixed point, on its own thread;
//   merge — parts merge pairwise (0+1, 2+3, ...; an odd part carries to the
//     next level) and each merged part runs the policy again, until one
//     store holds the whole stage.
//
// Sound because patterns are positive: a match inside a part is a match in
// the union, so every local fire is a legal step of Eq. (1), and the last
// level runs the policy over the whole store, so its fixed point is the
// stage's. Deterministic because the cut, the Rngs and the merge tree
// depend only on (seed, program, initial, workers), and each part is run
// by one thread: a completed run, and its journal, do not depend on thread
// timing. Each part journals into a recorder of its own, absorbed into the
// run's in part order after every level.
//
// The firing budget, the deadline and cancellation stay run-wide (one
// atomic fire count, one StopFlag). An error ends its part's thread and
// stops the others; after the join the engine rethrows the error of the
// lowest-numbered part, as IndexedEngine would throw it.
#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "gammaflow/common/logging.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/stage_fixpoint.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::gamma {
namespace {

/// One part of a stage's partition: its store, the Rng and policy memory
/// that go with that store, its journal (null when recording is off), and
/// the error that ended its thread, if any.
struct Part {
  Part(const FieldSet& fields, Rng r, std::size_t reactions,
       const obs::RunRecorder* run_journal)
      : store(fields), rng(std::move(r)), mem(reactions) {
    if (run_journal != nullptr) {
      journal = std::make_unique<obs::RunRecorder>(run_journal->limits());
    }
  }

  Store store;
  Rng rng;
  StageMemory mem;
  std::unique_ptr<obs::RunRecorder> journal;
  std::exception_ptr error;
};

/// A part's gate: the run-wide StopFlag and fire count, and a governor of
/// the part's own over the run's cancel token and deadline.
class PartGate {
 public:
  PartGate(runtime::StopFlag& stop, std::atomic<std::uint64_t>& fired,
           RunGovernor governor, const RunOptions& options,
           runtime::RecordCtx ctx)
      : stop_(stop),
        fired_(fired),
        governor_(governor),
        policy_(options.limit_policy),
        budget_(options.max_steps),
        ctx_(ctx) {}

  [[nodiscard]] bool running() const noexcept { return !stop_.stopped(); }
  [[nodiscard]] bool should_stop() {
    if (stop_.stopped()) return true;
    if (!governor_.should_stop()) return false;
    stop_.publish(governor_.outcome());
    return true;
  }
  /// Claims a slot of the run-wide budget, and gives it back on refusal.
  [[nodiscard]] bool admit(const Store& /*store*/, const Match& /*match*/) {
    const std::uint64_t n = fired_.fetch_add(1, std::memory_order_relaxed);
    if (runtime::admit_step(policy_, n, budget_, "parallel engine",
                            "max_steps")) {
      return true;
    }
    fired_.fetch_sub(1, std::memory_order_relaxed);
    stop_.publish(Outcome::BudgetExhausted);
    return false;
  }
  [[nodiscard]] const runtime::RecordCtx* record() const noexcept {
    return ctx_.recorder != nullptr ? &ctx_ : nullptr;
  }
  // The run journals one round per stage, after the last level.
  void pass_done(const Store& /*store*/, std::uint64_t /*fires*/) const {}

 private:
  runtime::StopFlag& stop_;
  std::atomic<std::uint64_t>& fired_;
  RunGovernor governor_;
  LimitPolicy policy_;
  std::uint64_t budget_;
  runtime::RecordCtx ctx_;
};

}  // namespace

RunResult ParallelEngine::run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const {
  const std::size_t workers = std::max(1u, options.workers);

  RunResult result;
  Multiset current;
  // The multiset a stage deals from: `initial`, then the previous stage's
  // result (dealing from `initial` in place saves copying it).
  const Multiset* stage_input = &initial;
  Rng seed_rng(options.seed);
  // One StepLoop for the whole run: the absolute deadline every part's
  // governor shares, and the wall clock.
  const runtime::StepLoop loop(options, options.max_steps, "parallel engine",
                               "max_steps");
  const runtime::RunRecording recording(options, "parallel", "gamma");
  recording.begin(initial);
  const runtime::EngineTelemetry telemetry(options, "gamma");
  obs::Telemetry* const tel = telemetry.sink();
  const FieldSet fields = FieldSet::of(program);
  runtime::StopFlag stop;
  std::atomic<std::uint64_t> fired{0};
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t passes = 0;
  std::uint64_t anchor_skips = 0;
  GF_DEBUG << "gamma parallel run: " << workers << " part(s), "
           << program.stages().size() << " stage(s), |M|=" << initial.size();

  for (std::size_t stage_idx = 0;
       stage_idx < program.stages().size() && !stop.stopped(); ++stage_idx) {
    const auto& stage = program.stages()[stage_idx];

    std::vector<Part> parts;
    parts.reserve(workers);
    for (std::size_t p = 0; p < workers; ++p) {
      parts.emplace_back(fields, seed_rng.split(), stage.size(),
                         recording.sink());
    }
    std::size_t dealt = 0;
    for (const Element& e : *stage_input) {
      parts[dealt++ % workers].store.insert(e);
    }

    const auto run_part = [&](std::size_t p, const char* span_name,
                              obs::ThreadRecorder* rec) {
      Part& part = parts[p];
      try {
        const obs::Span span(tel, rec, span_name);
        PartGate gate(stop, fired, loop.make_governor(options), options,
                      runtime::RecordCtx{part.journal.get(),
                                         static_cast<std::int64_t>(stage_idx),
                                         static_cast<std::int64_t>(p)});
        run_stage_fixpoint(part.store, stage, part.rng, part.mem,
                           StageObs(tel, rec, stage), gate);
      } catch (...) {
        part.error = std::current_exception();
        // Winds the other parts down; the error, not this outcome, is what
        // the run reports.
        stop.publish(Outcome::Cancelled);
      }
    };

    // Level 0 runs every part; the level at stride s merges part i + s into
    // part i for every i that is a multiple of 2s, and reruns part i.
    std::vector<std::size_t> jobs(workers);
    std::iota(jobs.begin(), jobs.end(), std::size_t{0});
    for (std::size_t stride = 1;; stride *= 2) {
      const char* const span_name = stride == 1 ? "part" : "merge";
      // Each job's trace thread, registered in part order before any job
      // runs, so a traced run gets the same tids every time.
      std::vector<obs::ThreadRecorder*> recs(jobs.size(), nullptr);
      if (tel) {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
          recs[j] = &tel->register_thread(
              std::string("gamma-part-").append(std::to_string(jobs[j])));
        }
      }
      {
        // jthreads join when the block ends, on every path out of it.
        std::vector<std::jthread> threads;
        threads.reserve(jobs.size() - 1);
        for (std::size_t j = 1; j < jobs.size(); ++j) {
          threads.emplace_back(run_part, jobs[j], span_name, recs[j]);
        }
        run_part(jobs[0], span_name, recs[0]);
      }
      for (const std::size_t p : jobs) {
        if (parts[p].error) std::rethrow_exception(parts[p].error);
      }
      if (recording) {
        for (const std::size_t p : jobs) {
          recording.sink()->absorb_fires(parts[p].journal->take());
        }
      }
      if (stride >= workers || stop.stopped()) break;
      jobs.clear();
      for (std::size_t i = 0; i + stride < workers; i += 2 * stride) {
        parts[i].store.append(parts[i + stride].store);
        parts[i + stride].store = Store();
        jobs.push_back(i);
      }
    }
    // A stopped run skipped levels: its unmerged parts join part 0 as they
    // are, which is the valid partial state.
    for (std::size_t p = 1; p < workers; ++p) {
      parts[0].store.append(parts[p].store);
    }

    std::vector<std::uint64_t> fires(stage.size(), 0);
    for (const Part& part : parts) {
      for (std::size_t i = 0; i < stage.size(); ++i) {
        fires[i] += part.mem.fires[i];
      }
      attempts += part.mem.attempts;
      failures += part.mem.failures;
      passes += part.mem.passes;
      anchor_skips += part.mem.anchor_skips();
    }
    for (const std::uint64_t n : fires) result.steps += n;
    runtime::add_fires(stage, fires, result.fires_by_reaction);
    current = parts[0].store.to_multiset();
    stage_input = &current;
    // One journal round per stage: every level joined, `current` is whole.
    if (recording) recording.round(current);
  }
  if (stage_input == &initial) current = initial;  // no stage ran

  if (tel) {
    auto& stats = tel->stats();
    stats.count("gamma.match_attempts", attempts);
    stats.count("gamma.match_failures", failures);
    stats.count("gamma.fires", result.steps);
    stats.count("gamma.passes", passes);
    stats.count("gamma.anchor_skips", anchor_skips);
    runtime::observe_reaction_compile(tel, program);
  }
  result.outcome = stop.outcome();
  telemetry.finish(result.outcome, result.metrics);
  result.final_multiset = std::move(current);
  recording.finish(result.outcome, result.final_multiset);
  result.wall_seconds = loop.wall_seconds();
  GF_DEBUG << "gamma parallel run done: " << result.steps << " fires, |M|="
           << result.final_multiset.size() << ", " << result.wall_seconds
           << "s";
  return result;
}

}  // namespace gammaflow::gamma
