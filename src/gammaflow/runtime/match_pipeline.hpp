// The one match→commit pipeline every Gamma runtime calls — the
// executable core of Eq. (1)'s "let x1..xn ∈ M such that Ri(x1..xn)". The
// backtracking candidate search used to live in gamma/store.cpp with each
// engine re-wrapping it; now the sequential/indexed/parallel engines, the
// distributed cluster, and the static-analysis passes all drive this type.
//
//   find      — one enabled match (first in bucket order, or randomized via
//               a cyclic start offset when given an Rng). Read-only: the
//               store's buckets are exact, so there is nothing to prune. With
//               an AnchorMemo, a two-pattern reaction's anchors skip the
//               candidates an earlier sweep already proved fail. The
//               innermost candidate bucket is evaluated as column batches
//               (a match bitmap from the compiled condition) instead of
//               per-element probes, falling back to the scalar bytecode
//               scan whenever the reaction has no batch plan or a chunk
//               faults. Candidates bind into one slot frame per search,
//               and conditions and computed outputs always run the
//               reaction's compiled bytecode on it; Reaction::apply(env)
//               (the AST walker) is the reference the differential tests
//               compare against. The engines' find fills the Match and
//               Frame of a caller-owned MatchSite, in which the reaction's
//               literals are pinned store cells, so a steady-state fire
//               builds no Value for a label, copies no string and hashes
//               none: a copied label or a literal reaches the Match as its
//               cell.
//   enumerate — every enabled match up to a limit (the SequentialEngine's
//               Eq. (1)-literal uniform choice, and match counting).
//   commit    — apply a match: remove consumed ids, insert produced
//               elements (Store::replace). One step of (M - {x..}) +
//               A(x..).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gammaflow/common/inline_vec.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/store.hpp"
#include "gammaflow/runtime/options.hpp"

namespace gammaflow::obs {
class Telemetry;
}
namespace gammaflow::gamma {
class Program;
}

namespace gammaflow::runtime {

/// Failed-anchor watermarks for one two-pattern reaction over one store
/// (semi-naive matching, DESIGN.md §15.5). For each anchor — the element
/// bound by the first pattern, keyed by slot id plus insertion stamp so a
/// reused slot starts fresh — it keeps the store version() at which a
/// complete inner sweep for that anchor found no fire. Guards are pure and
/// elements immutable, so every candidate stamped before that version still
/// fails and a later visit scans only the newer ones. When the second
/// pattern has exactly one join field, the entry also keeps the handle of
/// the join bucket the sweep probed, so a later visit finds that bucket
/// with no hash lookup. Caller-owned: one memo per reaction, used with one
/// store (or a copy of it, taken together with the memo). At most one
/// entry per slot.
class AnchorMemo {
 public:
  /// What a failed sweep proved for one anchor: candidates stamped before
  /// `watermark` fail.
  struct Proof {
    std::uint64_t stamp = 0;      // the anchor's insertion stamp
    std::uint64_t watermark = 0;  // 0 is "nothing proved", as no entry
    gamma::Store::BucketHandle join;  // read only for a one-join pattern
  };

  /// The proof for `id`'s occupant, or null when it has none.
  [[nodiscard]] const Proof* proof(const gamma::Store& store,
                                   gamma::Store::Id id) const noexcept {
    if (id >= entries_.size()) return nullptr;
    const Proof& p = entries_[id];
    return p.watermark != 0 && p.stamp == store.stamp(id) ? &p : nullptr;
  }
  /// The anchor's watermark: candidates stamped before it are proved to
  /// fail. 0 (scan everything) when `id`'s occupant has no entry.
  [[nodiscard]] std::uint64_t watermark(const gamma::Store& store,
                                        gamma::Store::Id id) const noexcept {
    const Proof* p = proof(store, id);
    return p != nullptr ? p->watermark : 0;
  }
  /// Records that a complete sweep for the anchor at `id`, over the join
  /// bucket `join` when it had one join, found no fire in the store as it
  /// is now.
  void record(const gamma::Store& store, gamma::Store::Id id,
              gamma::Store::BucketHandle join) {
    if (id >= entries_.size()) entries_.resize(id + std::size_t{1});
    entries_[id] = Proof{store.stamp(id), store.version(), join};
  }
  void count_skip() noexcept { ++skips_; }
  /// Anchor visits skipped outright: no candidate newer than the watermark.
  [[nodiscard]] std::uint64_t skips() const noexcept { return skips_; }

 private:
  std::vector<Proof> entries_;  // by anchor slot id
  std::uint64_t skips_ = 0;
};

/// One reaction's search state over one store, owned by the caller and
/// reused by every find (DESIGN.md §15.6): the reaction's literals as the
/// store's cells (its strings pinned there once, Store::pin), the handle of
/// each literal-key bucket as last found, the slot Frame a search binds
/// into, the Match it fills, and the reaction's AnchorMemo. A site binds on
/// its first find, and again when it meets another reaction or a store of
/// another lineage (Store::lineage); a copy stays bound, since a copy of the
/// store holds the same pins. StageMemory keeps one per reaction.
class MatchSite {
 public:
  MatchSite() = default;
  MatchSite(const MatchSite& other);
  MatchSite& operator=(const MatchSite& other);

  /// The match the last successful find filled.
  [[nodiscard]] const gamma::Match& match() const noexcept { return match_; }
  [[nodiscard]] AnchorMemo& memo() noexcept { return memo_; }
  [[nodiscard]] const AnchorMemo& memo() const noexcept { return memo_; }

 private:
  friend struct MatchPipeline;
  /// Pins the reaction's literals in `store` unless bound to both already.
  void bind(gamma::Store& store, const gamma::Reaction& reaction);

  const gamma::Reaction* reaction_ = nullptr;
  std::uint64_t lineage_ = 0;
  std::vector<gamma::Store::Cell> literals_;  // CompiledReaction::literals()
  InlineVec<gamma::Store::BucketHandle, 4> keys_;  // one per pattern
  gamma::Frame frame_;
  gamma::Match match_;
  AnchorMemo memo_;
};

struct MatchPipeline {
  /// The engines' find: fills `site.match()` with one enabled match of
  /// `reaction` (patterns match AND a branch fires) and returns true, or
  /// returns false after an EXHAUSTIVE failed search (the fixed-point proof
  /// the engines' termination detection rests on). Binds the site to
  /// (store, reaction) first when needed, which may pin strings in `store`;
  /// otherwise the store is only read. The site's AnchorMemo is read to
  /// skip proved failures and updated after each anchor sweep that
  /// completes with no fire. It changes neither the rng stream nor the
  /// match found, and reactions of other than two patterns ignore it.
  [[nodiscard]] static bool find(gamma::Store& store,
                                 const gamma::Reaction& reaction, Rng* rng,
                                 MatchSite& site);

  /// The same search on a store it only reads, with a fresh Frame and Match
  /// and no pins: a literal string is looked up by its text, and the match
  /// returned, or nullopt. `memo`, when given, acts as the site's; a null
  /// memo is an empty one.
  [[nodiscard]] static std::optional<gamma::Match> find(
      const gamma::Store& store, const gamma::Reaction& reaction,
      Rng* rng = nullptr, AnchorMemo* memo = nullptr);

  /// Invokes `fn` for every enabled match (ordered tuples of distinct
  /// elements), stopping early when fn returns false or `limit` matches were
  /// visited. Returns the number visited. Exponential in reaction arity —
  /// meant for small multisets (semantics tests) and match counting. `fn`
  /// must not call find/enumerate itself: the batch sweep keeps per-thread
  /// scratch that a nested search would overwrite.
  static std::size_t enumerate(
      const gamma::Store& store, const gamma::Reaction& reaction,
      std::size_t limit, const std::function<bool(const gamma::Match&)>& fn);

  /// Applies a match: removes the consumed ids, then writes the match's
  /// output cells straight into the store's columns (Store::replace).
  /// Precondition: all ids alive, and the match found on this store or on
  /// a copy of it.
  ///
  /// With a RecordCtx whose recorder is set, emits the firing's provenance
  /// (reaction, consumed elements rendered BEFORE removal, produced) to the
  /// run journal — this being the one commit point is what makes every
  /// Gamma path (sequential / indexed / parallel / cluster) recordable.
  static void commit(gamma::Store& store, const gamma::Match& match,
                     const RecordCtx* rec = nullptr);
};

/// Adds one stage's fire counts, indexed like the stage's reactions, to a
/// count by reaction name; reactions that never fired add no entry. The
/// engines count by index on the fire path and name the counts once per
/// stage.
void add_fires(const std::vector<gamma::Reaction>& stage,
               std::span<const std::uint64_t> fires,
               std::map<std::string, std::uint64_t>& by_name);

/// Feeds every reaction's one-time bytecode compile cost into the
/// "expr.compile_ms" histogram — the shared tail of every Gamma engine's
/// telemetry block. Null-safe.
void observe_reaction_compile(obs::Telemetry* tel,
                              const gamma::Program& program);

}  // namespace gammaflow::runtime
