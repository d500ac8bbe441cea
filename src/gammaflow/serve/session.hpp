// One serve tenant: a Program, its wakeup index, and a live store kept at
// fixpoint by a runtime::IncrementalFixpoint. The session owns the mutex
// serializing its verbs (the daemon is thread-per-connection; two clients
// may share a session id) and, when recording, the RunRecorder whose journal
// is written on close — tagged with the session id (Journal::session,
// DESIGN §11) so `gammaflow viz` can label the scrubber.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gammaflow/common/cancel.hpp"
#include "gammaflow/common/stats.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/obs/run_recorder.hpp"
#include "gammaflow/runtime/worklist.hpp"

namespace gammaflow::serve {

/// Per-session knobs resolved by the server from create-verb fields and
/// daemon defaults; `worklist.deadline` bounds each inject, `worklist.
/// max_steps` is the session's lifetime firing budget (LimitPolicy::Partial
/// — exhaustion is an error reply with valid partial state, never a crash).
struct SessionOptions {
  runtime::WorklistOptions worklist;
  bool record = false;
};

class Session {
 public:
  /// Builds the wakeup index (gamma::program_footprints) and the fixpoint
  /// driver. Throws EngineError for multi-stage programs.
  Session(std::string id, gamma::Program program,
          const SessionOptions& options);

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] bool recording() const noexcept { return recorder_ != nullptr; }

  struct InjectResult {
    Outcome outcome = Outcome::Completed;
    std::uint64_t fires = 0;       // firings this inject
    std::uint64_t fires_total = 0; // lifetime firings
    std::size_t store_size = 0;
    double quiesce_us = 0.0;       // injection-to-quiescence wall time
  };
  [[nodiscard]] InjectResult inject(const gamma::FlatElements& elements);

  /// Total multiplicity of elements whose label (string field 1) is `label`:
  /// the size of its (1, label) bucket when the program indexes field 1,
  /// otherwise a sweep of column 1 comparing symbol ids.
  [[nodiscard]] std::int64_t count_label(const std::string& label) const;
  /// Multiplicity of exactly `element`.
  [[nodiscard]] std::int64_t count_element(const gamma::Element& element) const;
  [[nodiscard]] std::size_t store_size() const;
  [[nodiscard]] obs::StoreCounts snapshot_counts() const;
  [[nodiscard]] gamma::Multiset snapshot() const;
  [[nodiscard]] runtime::WorklistStats stats() const;
  /// Injection-to-quiescence latency distribution (microseconds).
  [[nodiscard]] HistogramSnapshot quiesce_histogram() const;

  /// Finalizes the run journal and moves it out; a journal with an empty
  /// engine field means the session was not recording.
  [[nodiscard]] obs::Journal close();

 private:
  std::string id_;
  mutable std::mutex mu_;
  std::unique_ptr<obs::RunRecorder> recorder_;
  std::unique_ptr<runtime::IncrementalFixpoint> fix_;
  Histogram quiesce_us_;
};

}  // namespace gammaflow::serve
