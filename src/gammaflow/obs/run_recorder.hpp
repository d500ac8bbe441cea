// Run recorder: the provenance journal behind `--record-out` and the
// `gammaflow viz` scrubber. Where Telemetry answers "how fast / how often",
// the recorder answers "what happened to the multiset": per-fire provenance
// (reaction, consumed elements, produced elements, shard / cluster node) and
// per-round store snapshots, delta-encoded against the last KEPT snapshot so
// dropped rounds fold into the next one instead of corrupting replay.
//
// This is the only provenance channel: every engine, the cluster and the
// worklist honour RunOptions::record. Budgets: firings and rounds past the
// caps still execute, the journal just stops growing and counts the drops
// (fires_dropped / rounds_dropped). A journal with zero drops replays
// exactly — replay_fires(j) == j.final_store — which is what
// verify_journal() checks and the round-trip tests (and `gammaflow viz`'s
// embedded data) rely on.
//
// The recorder speaks strings (canonical Element / token renderings), not
// gamma types: gf_obs stays dependent on gf_common alone, and one journal
// format serves all three model families (gamma / dataflow / distrib).
// Thread-safe: the parallel engines fire() from worker threads.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gammaflow::obs {

/// A store snapshot as canonical element string -> multiplicity. Ordered so
/// journals serialize deterministically.
using StoreCounts = std::map<std::string, std::int64_t>;

/// One firing's provenance. `round` indexes the round the fire lands in:
/// the NEXT kept RoundDelta (so replaying rounds 0..k equals replaying all
/// fires with round <= k when nothing was dropped).
struct FireRecord {
  std::string reaction;                // reaction name / node label
  std::int64_t stage = -1;             // gamma stage index, -1 = n/a
  std::uint64_t round = 0;             // assigned by the recorder
  std::vector<std::string> consumed;   // element / token strings
  std::vector<std::string> produced;
  std::int64_t shard = -1;             // parallel Gamma part, -1 = n/a
  std::int64_t node = -1;              // distrib cluster node, -1 = n/a
};

/// One kept round: the store delta since the previous kept round.
struct RoundDelta {
  std::uint64_t fires = 0;     // fires recorded since the last kept round
  std::uint64_t store_size = 0;  // total multiplicity after this round
  StoreCounts added;
  StoreCounts removed;
};

/// Journal growth budgets; see the header note for drop semantics.
struct RecorderLimits {
  std::uint64_t max_fires = 100'000;
  std::uint64_t max_rounds = 10'000;
  /// Approximate byte budget for round deltas (strings + per-entry
  /// overhead); a round whose delta would exceed it is dropped.
  std::uint64_t max_round_bytes = 8ull << 20;
};

/// The serialized form (version `kJournalVersion`).
struct Journal {
  int version = 1;
  std::string engine;   // "sequential", "interpreter", "cluster", ...
  std::string kind;     // "gamma" | "dataflow" | "distrib"
  std::string outcome;  // runtime Outcome name, e.g. "completed"
  /// Serve-session id when the journal comes from a `gammaflow serve`
  /// session ("" for batch runs; the key is omitted from the serialized
  /// form then, so pre-session journals round-trip byte-identically).
  std::string session;
  StoreCounts initial;
  std::vector<RoundDelta> rounds;
  std::vector<FireRecord> fires;
  StoreCounts final_store;
  std::uint64_t fires_total = 0;    // fires offered, kept + dropped
  std::uint64_t fires_dropped = 0;
  std::uint64_t rounds_total = 0;   // rounds offered, kept + dropped
  std::uint64_t rounds_dropped = 0;
};

inline constexpr int kJournalVersion = 1;

class RunRecorder {
 public:
  RunRecorder() = default;
  explicit RunRecorder(RecorderLimits limits) : limits_(limits) {}

  /// Starts a run: names the engine/kind and snapshots the initial store.
  /// Resets any previous journal (a recorder records one run at a time).
  void begin(std::string engine, std::string kind, StoreCounts initial);

  /// Tags the journal with a serve-session id (Journal::session). Call
  /// after begin() — begin resets the journal, tag included.
  void set_session(std::string session);

  /// Records one firing (budgeted; drops count toward fires_dropped).
  void fire(FireRecord record);

  /// Records `part`'s fires, in order, as if each had been fire()d here;
  /// the fires `part` dropped count as dropped here too. The parallel Gamma
  /// engine's parts record into recorders of their own (with limits())
  /// and are absorbed in part order, which keeps its journal deterministic.
  void absorb_fires(Journal part);

  [[nodiscard]] const RecorderLimits& limits() const noexcept {
    return limits_;
  }

  /// Closes a round: computes the delta of `store` against the last kept
  /// snapshot. Budget-dropped rounds leave the baseline untouched, so the
  /// dropped delta folds into the next kept round.
  void round(const StoreCounts& store);

  /// Ends the run. Appends a closing round when the last kept snapshot
  /// differs from `final_store` (budget-exempt: replay always converges on
  /// the final store even when intermediate rounds were dropped).
  void finish(std::string outcome, StoreCounts final_store);

  /// The journal recorded so far (copy; safe to call mid-run).
  [[nodiscard]] Journal journal() const;
  /// Moves the journal out (end-of-run path; leaves the recorder empty).
  [[nodiscard]] Journal take();

 private:
  void fire_locked(FireRecord record);
  void close_round_locked(const StoreCounts& store, bool budget_exempt);

  mutable std::mutex mu_;
  RecorderLimits limits_;
  Journal journal_;
  StoreCounts last_kept_;       // baseline for the next round delta
  std::uint64_t round_bytes_ = 0;
  std::uint64_t fires_in_round_ = 0;
};

/// Serializes `journal` as one JSON object (stable key order, no trailing
/// newline). The format is documented in DESIGN.md ("Run journal").
void write_journal(std::ostream& out, const Journal& journal);
[[nodiscard]] std::string journal_to_string(const Journal& journal);

/// Parses a journal produced by write_journal (via parse_json, so nesting
/// is capped at kMaxJsonDepth). Throws std::runtime_error on malformed
/// input or an unsupported version; unknown keys are ignored.
[[nodiscard]] Journal parse_journal(std::istream& in);
[[nodiscard]] Journal parse_journal_string(const std::string& text);

/// Replays the first `upto` fires over `initial`: remove consumed, add
/// produced. With upto >= fires.size() and zero drops this reproduces
/// final_store.
[[nodiscard]] StoreCounts replay_fires(const Journal& journal,
                                       std::size_t upto);
/// Replays the first `upto` round deltas over `initial`.
[[nodiscard]] StoreCounts replay_rounds(const Journal& journal,
                                        std::size_t upto);

/// Internal consistency check: replay via rounds always matches final_store
/// (the closing round guarantees it); replay via fires matches when no fire
/// was dropped. Returns "" when consistent, else a diagnostic.
[[nodiscard]] std::string verify_journal(const Journal& journal);

}  // namespace gammaflow::obs
