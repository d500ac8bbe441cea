// Run-scoped telemetry: per-thread span/event recorders plus a metrics
// registry, handed to an engine through RunOptions/DfRunOptions. Design
// constraints, in order:
//   1. Zero cost when absent — engines hold a `Telemetry*` that defaults to
//      null, and every instrumentation site is behind one pointer test.
//   2. No locks on the hot path — each engine thread registers once (cold,
//      mutexed) and then writes into its own fixed-capacity ring buffer;
//      overflow overwrites the oldest events rather than allocating.
//   3. Post-mortem reading — recorders are read only after the run's worker
//      threads have joined, so the ring needs no atomics at all.
// Exporters (Chrome trace JSON, text report) live in trace_export.hpp and
// report.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gammaflow/common/stats.hpp"

namespace gammaflow::obs {

/// One trace event, shaped after the Chrome trace-event phases we emit:
/// 'X' complete span, 'i' instant, 'C' counter sample.
struct TraceEvent {
  const char* name = "";  // static literal or Telemetry::intern result
  char phase = 'X';
  std::uint64_t ts_us = 0;   // microseconds since the Telemetry epoch
  std::uint64_t dur_us = 0;  // 'X' only
  std::uint64_t arg = 0;     // 'C' value; optional span/instant payload
  bool has_arg = false;
};

/// Fixed-capacity single-writer event ring. The owning thread records;
/// nobody reads until that thread is done (engines join before exporting).
class ThreadRecorder {
 public:
  ThreadRecorder(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), ring_(capacity > 0 ? capacity : 1) {}

  void record(const TraceEvent& ev) noexcept {
    ring_[static_cast<std::size_t>(recorded_ % ring_.size())] = ev;
    ++recorded_;
  }
  void instant(const char* name, std::uint64_t ts_us) noexcept {
    record(TraceEvent{name, 'i', ts_us, 0, 0, false});
  }
  void counter(const char* name, std::uint64_t ts_us,
               std::uint64_t value) noexcept {
    record(TraceEvent{name, 'C', ts_us, 0, value, true});
  }

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }
  /// Total events ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  /// Surviving events, oldest first. Only valid once the writer stopped.
  [[nodiscard]] std::vector<TraceEvent> events() const;

 private:
  std::uint32_t tid_;
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
};

class Telemetry {
 public:
  static constexpr std::size_t kDefaultEventsPerThread = std::size_t{1} << 16;

  explicit Telemetry(std::size_t events_per_thread = kDefaultEventsPerThread)
      : epoch_(std::chrono::steady_clock::now()),
        events_per_thread_(events_per_thread) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Registers a trace thread under `name` ("gamma-part-3"); cold path. Tids
  /// number registrations in order, so the parallel engines register their
  /// workers from the coordinating thread, in worker order, before any
  /// starts. The returned recorder is owned by the Telemetry and written by
  /// one thread at a time.
  ThreadRecorder& register_thread(const std::string& name);

  /// Copies `s` into telemetry-lifetime storage so hot paths can stamp
  /// events with a stable `const char*` (intern once, record many).
  const char* intern(const std::string& s);

  [[nodiscard]] std::uint64_t now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Run-scoped metric sink; safe from any thread.
  [[nodiscard]] StatsRegistry& stats() noexcept { return stats_; }
  [[nodiscard]] MetricsSnapshot metrics() const { return stats_.snapshot(); }

  struct ThreadView {
    const ThreadRecorder* recorder;
    std::string name;
  };
  /// All registered threads; call after the run's workers joined.
  [[nodiscard]] std::vector<ThreadView> threads() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t events_per_thread_;
  mutable std::mutex mutex_;
  std::deque<ThreadRecorder> recorders_;  // deque: stable addresses
  std::vector<std::string> thread_names_;
  std::deque<std::string> interned_;
  StatsRegistry stats_;
};

/// RAII complete-span. With a null telemetry the constructor is a pair of
/// pointer stores and the destructor one null test — cheap enough to leave
/// in engine loops unconditionally.
class Span {
 public:
  Span(const Telemetry* tel, ThreadRecorder* rec, const char* name) noexcept
      : tel_(tel), rec_(rec), name_(name),
        start_(tel ? tel->now_us() : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (rec_ == nullptr) return;
    const std::uint64_t end = tel_->now_us();
    rec_->record(TraceEvent{name_, 'X', start_, end - start_, arg_, has_arg_});
  }

  void set_arg(std::uint64_t v) noexcept {
    arg_ = v;
    has_arg_ = true;
  }

 private:
  const Telemetry* tel_;
  ThreadRecorder* rec_;
  const char* name_;
  std::uint64_t start_;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
};

}  // namespace gammaflow::obs
