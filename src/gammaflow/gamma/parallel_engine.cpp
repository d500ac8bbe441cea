// ParallelEngine: multithreaded multiset rewriting. Two store disciplines,
// chosen per stage:
//
// SHARDED (runtime::ShardedStore, when plan_shards accepts the stage's
// conflict classes and RunOptions::shard is on): the store is partitioned by
// conflict class, so each shard is a closed sub-chemistry — every match a
// shard can ever enable is local to it. Workers claim whole shards (atomic
// index + per-shard mutex) and run each to its own fixed point with no
// global lock, no revalidation ("gamma.class_fast_commits" counts every
// commit; "gamma.commit_conflicts" is zero by construction). Each shard owns
// a pre-split Rng drawn in shard order, so a completed run is deterministic
// in (seed, program, initial) regardless of worker count or claim order.
//
// OPTIMISTIC (single store, the general fallback): workers search for
// matches under a SHARED lock (read-only index probing) and commit under an
// EXCLUSIVE lock, revalidating the match first — element slots are reused,
// so between search and commit an id may have died or been recycled.
// Revalidation (runtime::MatchPipeline::validate) re-runs the pattern match
// and branch selection on the current slot contents, which makes the scheme
// linearizable: every committed firing was enabled at its commit point.
// Termination ("global termination state" in the paper) is the version-
// stamped quiescence vote (runtime::QuiescenceVote): when every worker's
// exhaustive search failed at the SAME store version, the stage is at its
// fixed point.
//
// Scaffolding — deadline/cancel governors, the firing budget, trace caps,
// and the telemetry tail — comes from runtime::StepLoop & friends; this file
// keeps the worker topology and commit strategy.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <thread>

#include "gammaflow/common/logging.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/match_pipeline.hpp"
#include "gammaflow/runtime/sharded_store.hpp"
#include "gammaflow/runtime/step_loop.hpp"

namespace gammaflow::gamma {
namespace {

/// Per-worker/per-shard metric slots, written race-free by the owner and
/// summed into the StatsRegistry after the stage's threads joined.
struct WorkerMetrics {
  std::uint64_t match_attempts = 0;
  std::uint64_t match_failures = 0;
  std::uint64_t commit_conflicts = 0;
  std::uint64_t search_retries = 0;
  std::uint64_t quiescence_rounds = 0;
  std::uint64_t fires = 0;
  std::uint64_t class_fast_commits = 0;

  void add(const WorkerMetrics& m) {
    match_attempts += m.match_attempts;
    match_failures += m.match_failures;
    commit_conflicts += m.commit_conflicts;
    search_retries += m.search_retries;
    quiescence_rounds += m.quiescence_rounds;
    fires += m.fires;
    class_fast_commits += m.class_fast_commits;
  }
};

/// Read-only telemetry context shared by a stage's workers; null members
/// when telemetry is off.
struct StageObs {
  obs::Telemetry* tel = nullptr;
  // Indexed by reaction position in the stage ("gamma.fire_us.<name>").
  std::vector<Histogram*> fire_hist;

  StageObs(obs::Telemetry* t, const std::vector<Reaction>& stage) : tel(t) {
    if (tel == nullptr) return;
    fire_hist.reserve(stage.size());
    for (const Reaction& r : stage) {
      fire_hist.push_back(&tel->stats().hist("gamma.fire_us." + r.name()));
    }
  }
};

/// What one stage hands back to the run driver, whichever discipline ran it.
struct StageResult {
  Outcome outcome = Outcome::Completed;
  std::uint64_t steps = 0;
  std::map<std::string, std::uint64_t> fires;
  std::exception_ptr error;
};

// ---------------------------------------------------------------------------
// Sharded discipline
// ---------------------------------------------------------------------------

/// One shard's private execution state. The Rng is pre-split in shard order
/// (NOT claim order) — determinism lives here.
struct ShardTask {
  std::vector<std::size_t> reactions;  // stage positions owned by this shard
  Rng rng;
  runtime::TraceSink<FireEvent> trace;
  std::map<std::string, std::uint64_t> fires;
  WorkerMetrics wm;
  runtime::RecordCtx rctx;  // provenance coordinates (recorder null = off)

  ShardTask(Rng r, const RunOptions& options)
      : rng(std::move(r)), trace(options) {}
};

/// Runs one shard's closed sub-chemistry to its fixed point: shuffled passes
/// over the shard's reactions, firing each while it stays enabled (the
/// indexed-engine policy, applied shard-locally). Commits never revalidate —
/// the shard lock is total ownership. `fired` is the run-wide budget gate.
void run_shard(Store& store, const std::vector<Reaction>& stage,
               std::size_t stage_idx, ShardTask& task,
               const RunOptions& options, RunGovernor& governor,
               runtime::StopFlag& stop, std::atomic<std::uint64_t>& fired,
               std::mutex& error_mutex, std::exception_ptr& error,
               const StageObs& ob) {
  const expr::EvalMode mode = options.eval_mode();
  obs::Telemetry* const tel = ob.tel;
  std::vector<std::size_t> order = task.reactions;
  bool progressed = true;
  while (progressed && !stop.stopped()) {
    progressed = false;
    std::shuffle(order.begin(), order.end(), task.rng);
    for (const std::size_t idx : order) {
      if (stop.stopped()) return;
      const Reaction& r = stage[idx];
      while (true) {
        if (governor.should_stop()) {
          stop.publish(governor.outcome());
          return;
        }
        const std::uint64_t fire_start = tel ? tel->now_us() : 0;
        auto match = runtime::MatchPipeline::find(store, r, &task.rng, mode);
        ++task.wm.match_attempts;
        if (!match) {
          ++task.wm.match_failures;
          break;
        }
        // Run-wide budget gate: claim a step slot, give it back on refusal.
        const std::uint64_t n = fired.fetch_add(1, std::memory_order_relaxed);
        bool admitted = false;
        try {
          admitted = runtime::admit_step(options.limit_policy, n,
                                         options.max_steps, "parallel engine",
                                         "max_steps");
        } catch (...) {
          const std::scoped_lock lk(error_mutex);
          if (!error) error = std::current_exception();
        }
        if (!admitted) {
          fired.fetch_sub(1, std::memory_order_relaxed);
          stop.publish(Outcome::BudgetExhausted);
          return;
        }
        if (task.trace.admit()) {
          FireEvent ev;
          ev.reaction = r.name();
          ev.stage = stage_idx;
          for (const Store::Id id : match->ids) {
            ev.consumed.push_back(store.element(id));
          }
          ev.produced = match->produced;
          task.trace.push(std::move(ev));
        }
        ++task.fires[r.name()];
        ++task.wm.fires;
        ++task.wm.class_fast_commits;
        runtime::MatchPipeline::commit(
            store, *match, task.rctx.recorder != nullptr ? &task.rctx : nullptr);
        if (store.needs_compact()) store.compact();
        progressed = true;
        if (tel) {
          ob.fire_hist[idx]->observe(
              static_cast<double>(tel->now_us() - fire_start));
        }
      }
    }
  }
}

/// Stage driver for the sharded discipline. Workers claim shards by atomic
/// index and hold the shard mutex for the whole local fixpoint; per-shard
/// traces and metrics merge in shard order after join.
StageResult run_sharded_stage(const std::vector<Reaction>& stage,
                              std::size_t stage_idx,
                              const runtime::ShardPlan& plan,
                              Multiset& current, const RunOptions& options,
                              const runtime::StepLoop& loop, Rng& seed_rng,
                              unsigned workers, std::uint64_t prior_steps,
                              const StageObs& ob,
                              runtime::TraceSink<FireEvent>& trace,
                              WorkerMetrics& total,
                              const runtime::RunRecording& recording) {
  runtime::ShardedStore sharded(
      current, runtime::ShardMap(plan.label_shard, plan.shard_count));

  std::vector<ShardTask> tasks;
  tasks.reserve(plan.shard_count);
  for (std::size_t s = 0; s < plan.shard_count; ++s) {
    tasks.emplace_back(seed_rng.split(), options);
    tasks.back().rctx = recording.ctx(static_cast<std::int64_t>(stage_idx),
                                      static_cast<std::int64_t>(s));
  }
  for (std::size_t i = 0; i < stage.size(); ++i) {
    tasks[plan.reaction_shard[i]].reactions.push_back(i);
  }

  runtime::StopFlag stop;
  std::atomic<std::uint64_t> fired{prior_steps};
  std::atomic<std::size_t> next_shard{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  const unsigned nthreads = static_cast<unsigned>(
      std::min<std::size_t>(workers, plan.shard_count));
  auto worker = [&](unsigned wid) {
    obs::ThreadRecorder* const rec =
        ob.tel ? &ob.tel->register_thread("gamma-worker-" + std::to_string(wid))
               : nullptr;
    RunGovernor governor = loop.make_governor(options);
    while (!stop.stopped()) {
      const std::size_t s =
          next_shard.fetch_add(1, std::memory_order_relaxed);
      if (s >= sharded.shard_count()) return;
      runtime::ShardedStore::Shard& shard = sharded.shard(s);
      const std::scoped_lock lk(shard.mutex);
      obs::Span span(ob.tel, rec, "shard");
      run_shard(shard.store, stage, stage_idx, tasks[s], options, governor,
                stop, fired, error_mutex, error, ob);
      span.set_arg(tasks[s].wm.fires);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (unsigned w = 0; w < nthreads; ++w) threads.emplace_back(worker, w);
  for (auto& t : threads) t.join();

  StageResult out;
  out.error = error;
  out.outcome = stop.outcome();
  for (ShardTask& task : tasks) {  // shard order: deterministic merge
    out.steps += task.wm.fires;
    for (const auto& [name, n] : task.fires) out.fires[name] += n;
    trace.merge(std::move(task.trace));
    total.add(task.wm);
  }
  current = sharded.to_multiset();
  return out;
}

// ---------------------------------------------------------------------------
// Optimistic discipline
// ---------------------------------------------------------------------------

struct StageShared {
  Store store;
  std::shared_mutex mutex;
  std::condition_variable_any cv;

  // All guarded by `mutex` (exclusive side):
  runtime::QuiescenceVote vote;
  bool done = false;
  Outcome outcome = Outcome::Completed;
  std::uint64_t steps = 0;
  std::map<std::string, std::uint64_t> fires;
  runtime::TraceSink<FireEvent> trace;
  runtime::RecordCtx rctx;  // provenance coordinates (recorder null = off)
  std::exception_ptr error;

  StageShared(Store s, const RunOptions& options)
      : store(std::move(s)), trace(options) {}
};

void worker_loop(StageShared& sh, const std::vector<Reaction>& stage,
                 std::size_t stage_idx, const RunOptions& options,
                 const runtime::StepLoop& loop, Rng rng,
                 unsigned total_workers, unsigned worker_id,
                 std::uint64_t prior_steps, const StageObs& ob,
                 WorkerMetrics& wm) {
  std::vector<std::size_t> order(stage.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t my_mark = runtime::QuiescenceVote::kNone;
  RunGovernor governor = loop.make_governor(options);
  const expr::EvalMode mode = options.eval_mode();

  obs::Telemetry* const tel = ob.tel;
  obs::ThreadRecorder* const rec =
      tel ? &tel->register_thread("gamma-worker-" + std::to_string(worker_id))
          : nullptr;

  while (true) {
    if (governor.should_stop()) {
      // Cooperative exit: first worker to notice flips `done` so waiting
      // peers wake and join; the store stays valid for the partial result.
      std::unique_lock lock(sh.mutex);
      if (!sh.done) {
        sh.done = true;
        sh.outcome = governor.outcome();
        sh.cv.notify_all();
      }
      return;
    }
    // --- search phase (shared lock) ---
    std::optional<Match> proposal;
    std::size_t proposal_idx = 0;
    std::uint64_t v_start = 0;
    const std::uint64_t search_start = tel ? tel->now_us() : 0;
    {
      obs::Span search_span(tel, rec, "search");
      std::shared_lock lock(sh.mutex);
      if (sh.done) return;
      v_start = sh.store.version();
      std::shuffle(order.begin(), order.end(), rng);
      const Store& cstore = sh.store;
      for (const std::size_t idx : order) {
        ++wm.match_attempts;
        proposal = runtime::MatchPipeline::find(cstore, stage[idx], &rng, mode);
        if (proposal) {
          proposal_idx = idx;
          break;
        }
        ++wm.match_failures;
      }
    }

    // --- commit phase (exclusive lock) ---
    obs::Span commit_span(tel, rec, proposal ? "commit" : "quiesce");
    std::unique_lock lock(sh.mutex);
    if (sh.done) return;

    if (proposal) {
      // Revalidate on current slot contents (ids may have been consumed or
      // recycled since the search).
      if (runtime::MatchPipeline::validate(sh.store, *proposal, mode)) {
        bool admitted = false;
        try {
          admitted = runtime::admit_step(
              options.limit_policy, prior_steps + sh.steps, options.max_steps,
              "parallel engine", "max_steps");
        } catch (...) {
          sh.error = std::current_exception();
        }
        if (!admitted) {
          sh.outcome = Outcome::BudgetExhausted;
          sh.done = true;
          sh.cv.notify_all();
          return;
        }
        if (sh.trace.admit()) {
          FireEvent ev;
          ev.reaction = proposal->reaction->name();
          ev.stage = stage_idx;
          for (const Store::Id id : proposal->ids) {
            ev.consumed.push_back(sh.store.element(id));
          }
          ev.produced = proposal->produced;
          sh.trace.push(std::move(ev));
        }
        ++sh.fires[proposal->reaction->name()];
        ++sh.steps;
        ++wm.fires;
        runtime::MatchPipeline::commit(
            sh.store, *proposal,
            sh.rctx.recorder != nullptr ? &sh.rctx : nullptr);
        // Removes leave dead column rows behind (the garbage debt). Settle
        // it here, where we hold the exclusive lock anyway.
        if (sh.store.needs_compact()) sh.store.compact();
        if (tel) {
          // Search-to-commit latency: what one firing of this reaction cost
          // this worker, conflicts and lock waits included.
          ob.fire_hist[proposal_idx]->observe(
              static_cast<double>(tel->now_us() - search_start));
        }
        sh.cv.notify_all();  // wake quiescent workers: version moved
        continue;
      }
      // Invalidated proposal: fall through and re-search. This is progress
      // for someone else (another worker consumed our elements), so no
      // quiescence bookkeeping here.
      ++wm.commit_conflicts;
      if (rec) rec->instant("conflict", tel->now_us());
      continue;
    }

    // --- failed exhaustive search: quiescence protocol ---
    if (sh.store.version() != v_start) {
      // World changed while we searched: the empty search proves nothing.
      ++wm.search_retries;
      continue;
    }
    ++wm.quiescence_rounds;
    if (sh.vote.quiet(v_start, my_mark, total_workers)) {
      sh.done = true;
      sh.cv.notify_all();
      return;
    }
    sh.cv.wait(lock, [&] {
      return sh.done || sh.store.version() != v_start;
    });
    if (sh.done) return;
  }
}

StageResult run_optimistic_stage(const std::vector<Reaction>& stage,
                                 std::size_t stage_idx, Multiset& current,
                                 const RunOptions& options,
                                 const runtime::StepLoop& loop, Rng& seed_rng,
                                 unsigned workers, std::uint64_t prior_steps,
                                 const StageObs& ob,
                                 runtime::TraceSink<FireEvent>& trace,
                                 WorkerMetrics& total,
                                 const runtime::RunRecording& recording) {
  StageShared shared{Store(current), options};
  shared.rctx = recording.ctx(static_cast<std::int64_t>(stage_idx));
  std::vector<WorkerMetrics> wm(workers);

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back(worker_loop, std::ref(shared), std::cref(stage),
                         stage_idx, std::cref(options), std::cref(loop),
                         seed_rng.split(), workers, w, prior_steps,
                         std::cref(ob), std::ref(wm[w]));
  }
  for (auto& t : threads) t.join();

  StageResult out;
  out.error = shared.error;
  out.outcome = shared.outcome;
  out.steps = shared.steps;
  out.fires = std::move(shared.fires);
  trace.merge(std::move(shared.trace));
  for (const WorkerMetrics& m : wm) total.add(m);
  current = shared.store.to_multiset();
  return out;
}

}  // namespace

RunResult ParallelEngine::run(const Program& program, const Multiset& initial,
                              const RunOptions& options) const {
  const unsigned workers = std::max(1u, options.workers);

  RunResult result;
  Multiset current = initial;
  Rng seed_rng(options.seed);
  // One StepLoop for the whole run: the absolute deadline every worker
  // governor shares, the run-wide firing budget, and the wall clock.
  runtime::StepLoop loop(options, options.max_steps, "parallel engine",
                         "max_steps");
  runtime::TraceSink<FireEvent> trace(options);
  const runtime::RunRecording recording(options, "parallel", "gamma");
  recording.begin(initial);
  const runtime::EngineTelemetry telemetry(options, "gamma");
  obs::Telemetry* const tel = telemetry.sink();
  WorkerMetrics total;
  GF_DEBUG << "gamma parallel run: " << workers << " workers, "
           << program.stages().size() << " stage(s), |M|=" << initial.size();

  for (std::size_t stage_idx = 0;
       stage_idx < program.stages().size() &&
       result.outcome == Outcome::Completed;
       ++stage_idx) {
    const auto& stage = program.stages()[stage_idx];
    const StageObs ob(tel, stage);
    const runtime::ShardPlan plan =
        runtime::plan_shards(stage, options.conflict_classes);

    StageResult sr;
    if (options.shard && plan.sharded) {
      GF_DEBUG << "stage " << stage_idx << ": sharded, " << plan.shard_count
               << " shard(s)";
      sr = run_sharded_stage(stage, stage_idx, plan, current, options, loop,
                             seed_rng, workers, result.steps, ob, trace,
                             total, recording);
    } else {
      sr = run_optimistic_stage(stage, stage_idx, current, options, loop,
                                seed_rng, workers, result.steps, ob, trace,
                                total, recording);
    }
    if (sr.error) std::rethrow_exception(sr.error);
    result.outcome = sr.outcome;
    result.steps += sr.steps;
    for (const auto& [name, n] : sr.fires) result.fires_by_reaction[name] += n;
    // One journal round per stage: workers joined, `current` is consistent.
    if (recording) recording.round(current);
  }

  if (tel) {
    auto& stats = tel->stats();
    stats.count("gamma.match_attempts", total.match_attempts);
    stats.count("gamma.match_failures", total.match_failures);
    stats.count("gamma.commit_conflicts", total.commit_conflicts);
    stats.count("gamma.search_retries", total.search_retries);
    stats.count("gamma.quiescence_rounds", total.quiescence_rounds);
    stats.count("gamma.fires", result.steps);
    stats.count("gamma.class_fast_commits", total.class_fast_commits);
    runtime::observe_reaction_compile(tel, program);
  }
  result.trace = trace.take();
  result.trace_dropped = trace.dropped();
  telemetry.finish(result.outcome, result.metrics);
  result.final_multiset = std::move(current);
  recording.finish(result.outcome, result.final_multiset);
  result.wall_seconds = loop.wall_seconds();
  GF_DEBUG << "gamma parallel run done: " << result.steps << " fires, |M|="
           << result.final_multiset.size() << ", "
           << result.wall_seconds << "s";
  return result;
}

}  // namespace gammaflow::gamma
