// The run knobs every engine honors identically. Six runtimes execute the
// paper's one semantics (the Γ fixed point of Eq. (1) / the tagged-token
// firing rule); what used to be six hand-copied option structs drifting
// apart is now one base the per-model option types extend:
//
//   gamma::RunOptions      : runtime::RunOptions  (+ seed, max_steps, ...)
//   dataflow::DfRunOptions : runtime::RunOptions  (+ max_fires, memoize)
//   distrib::ClusterOptions: runtime::RunOptions  (+ nodes, faults, ...)
//
// Inheritance rather than composition keeps every existing call site
// (`opts.deadline = ...`, `opts.telemetry = &tel`) source-compatible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <thread>

#include "gammaflow/common/cancel.hpp"

namespace gammaflow::obs {
class Telemetry;
class RunRecorder;
}  // namespace gammaflow::obs

namespace gammaflow::runtime {

struct RunOptions {
  /// Worker count (the parallel engines; ignored by single-threaded ones
  /// and by the cluster, whose concurrency is `nodes`).
  unsigned workers = std::max(2u, std::thread::hardware_concurrency());
  /// Optional telemetry sink (spans + metrics). Null (the default) disables
  /// instrumentation entirely; every probe site is behind one pointer test.
  obs::Telemetry* telemetry = nullptr;
  /// Optional run recorder: the one provenance channel (per-fire
  /// provenance + per-round store deltas for `--record-out` / `gammaflow
  /// viz`), honoured by every engine, the cluster and the worklist. Null
  /// (the default) disables recording entirely; like telemetry, every probe
  /// is one pointer test.
  obs::RunRecorder* record = nullptr;
  /// Optional cooperative stop flag shared with the caller. When it fires
  /// the engine returns the state reached so far (outcome Cancelled) with
  /// all worker threads joined — it never throws for a cancellation.
  const CancelToken* cancel = nullptr;
  /// Wall-clock budget in seconds from run start; <= 0 disables. Exceeding
  /// it returns a valid partial result with outcome DeadlineExceeded.
  double deadline = 0.0;
  /// What exhausting the firing budget (max_steps / max_fires / max_rounds)
  /// does: Throw (EngineError, historical) or Partial (return the partial
  /// state with outcome BudgetExhausted).
  LimitPolicy limit_policy = LimitPolicy::Throw;
};

/// Recording context a Gamma commit site threads into
/// MatchPipeline::commit: which recorder (null = off) plus the coordinates
/// the engine knows and the pipeline does not. One struct instead of three
/// loose ints so adding a coordinate never touches every engine again.
struct RecordCtx {
  obs::RunRecorder* recorder = nullptr;
  std::int64_t stage = -1;  // gamma stage index
  std::int64_t shard = -1;  // parallel Gamma engine part index
  std::int64_t node = -1;   // distrib cluster node index
};

}  // namespace gammaflow::runtime
