// Indexed element store: the engines' internal multiset representation,
// laid out as a structure-of-arrays. Elements live in per-arity COLUMN
// GROUPS: each field is a contiguous int64 column (the dominant Int case)
// with a tag byte per row and a spill sidecar holding non-Int payloads, so
// a compiled condition can sweep a whole candidate batch without touching a
// Value variant per field. A per-row liveness bitmap masks removed rows;
// dead rows are the garbage debt, counted exactly at remove() time.
//
// Secondary indexes map (field, value) and arity to candidate id lists so
// reaction matching probes a bucket instead of scanning the multiset.
// Buckets are EXACT: every bucket holds precisely the live occupants with
// its key, in insertion order, at all times. insert() appends; remove()
// unindexes the id from its arity bucket and every (field, value) bucket
// (binary search on the per-slot insertion stamp, then an ordered erase)
// and drops a field bucket that becomes empty, so the field index holds
// only keys some live element carries. Nothing in a bucket is ever stale,
// which keeps lookups read-only (safe under shared locks) and keeps the
// seeded pick stream — rng->bounded(bucket size), then a cyclic scan in
// insertion order — independent of when garbage was last collected.
// compact() rewrites column groups densely (inserts self-trigger it once
// the dead-row debt crosses the threshold, so long worklist runs stay
// O(live)).
//
// The matching machinery itself (backtracking candidate search, batch
// bitmap evaluation, match revalidation, commit) lives in
// runtime/match_pipeline.hpp — one implementation for every engine. The
// find_match/enumerate_matches/commit free functions declared here are thin
// delegates kept for source compatibility.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "gammaflow/common/rng.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::gamma {

class Store {
 public:
  using Id = std::uint32_t;

  /// An index bucket: the live ids carrying one (field,value) key or one
  /// arity, in insertion order. Exact — no dead or reused slots.
  using Bucket = std::vector<Id>;

  /// One field of a column group: Int payloads inline in `data`, every
  /// other kind spilled to the sidecar (`data[row]` is then the spill
  /// index; Nil carries no payload at all). `tags[row]` is the ValueKind.
  /// Read-only outside Store; the batch matcher reads `data`/`tags`
  /// directly for its dense sweeps.
  struct Column {
    std::vector<std::int64_t> data;
    std::vector<std::uint8_t> tags;
    std::vector<Value> spill;
  };

  /// Per-arity SoA block: `cols[f]` holds field f of every element of this
  /// arity ever inserted (dead rows linger until compaction — the liveness
  /// bitmap masks them out). Row order is append order; compact() preserves
  /// it while dropping dead rows.
  struct ColumnGroup {
    std::size_t arity = 0;
    std::vector<Column> cols;
    std::vector<Id> row_ids;  // row -> current slot id at insert time
    std::vector<std::uint64_t> live_bits;  // 64 rows per word
    std::size_t rows = 0;       // total rows, dead included
    std::size_t live_rows = 0;

    [[nodiscard]] bool row_live(std::size_t row) const noexcept {
      return ((live_bits[row >> 6] >> (row & 63)) & 1u) != 0;
    }
    /// Field f of `row` materialized back to a Value (any kind).
    [[nodiscard]] Value field_value(std::size_t row, std::size_t f) const;
  };

  /// Where an id's current occupant lives in the column groups.
  struct RowRef {
    const ColumnGroup* group = nullptr;
    std::uint32_t row = 0;
  };

  Store() = default;
  explicit Store(const Multiset& m) {
    for (const Element& e : m) insert(e);
  }

  Id insert(Element e);
  void remove(Id id);

  [[nodiscard]] bool alive(Id id) const noexcept {
    return id < alive_.size() && alive_[id];
  }
  /// The element at `id`, materialized from its column-group row.
  /// Precondition: alive(id).
  [[nodiscard]] Element element(Id id) const;
  /// Column-group coordinates of `id`'s slot (batch gather). Precondition:
  /// alive(id); valid until the next mutation.
  [[nodiscard]] RowRef row(Id id) const noexcept {
    const Loc loc = locs_[id];
    return RowRef{&groups_[loc.group], loc.row};
  }
  /// Matches `p` against the element at `id` directly on the columns —
  /// the scalar probe path, with no Element materialization. Same
  /// semantics as Pattern::match(element(id), env). Precondition: alive(id).
  [[nodiscard]] bool match_pattern(const Pattern& p, Id id,
                                   expr::Env& env) const;
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// The bucket the pattern probes: the (field,value) bucket when the
  /// pattern carries a literal constraint, otherwise the arity bucket; null
  /// when no such bucket exists (nothing can match). Read-only, so safe
  /// under a shared lock; the pointer stays valid until the next mutation.
  [[nodiscard]] const Bucket* bucket(const Pattern& p) const;

  /// Number of (field,value) buckets. Empty buckets are dropped on
  /// remove(), so this never exceeds the live distinct (field,value) pairs.
  [[nodiscard]] std::size_t field_bucket_count() const noexcept {
    return field_index_.size();
  }

  /// Dead rows still occupying column-group storage — the garbage debt.
  /// Exact (counted at remove()), unlike the old observation-sampled
  /// stale-seen scheme.
  [[nodiscard]] std::uint64_t dead_rows() const noexcept { return dead_rows_; }

  /// True once the garbage debt crosses kGarbageCompactThreshold: the next
  /// exclusive section should call compact(). insert() also self-triggers
  /// collection past the threshold (or when dead rows dwarf live ones), so
  /// batch sweeps and memory stay O(live) even on paths that never check.
  [[nodiscard]] bool needs_compact() const noexcept {
    return dead_rows_ >= kGarbageCompactThreshold;
  }
  static constexpr std::uint64_t kGarbageCompactThreshold = 4096;

  /// Rewrites every column group densely (dropping dead rows, rebuilding
  /// the spill sidecars), settling the garbage debt. Engines call this from
  /// an exclusive section when needs_compact(). Buckets hold ids, not rows,
  /// so they need no rewrite.
  void compact();

  /// Column-group compactions performed by THIS store (the
  /// `store.column_compactions` metric counts the process-wide total).
  [[nodiscard]] std::uint64_t column_compactions() const noexcept {
    return column_compactions_;
  }

  /// Snapshot back to the public value type (slot-id order, as before the
  /// columnar layout — callers canonicalize for comparisons).
  [[nodiscard]] Multiset to_multiset() const;

  /// Monotone count of successful insert/remove operations; engines use it
  /// as a cheap "has anything changed" version stamp.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  struct FieldKey {
    std::size_t field;
    Value value;
    bool operator==(const FieldKey& o) const noexcept {
      // Index identity, not Value ==: a NaN field must still find its own
      // bucket again when remove() unindexes it.
      return field == o.field &&
             (value == o.value || (is_nan(value) && is_nan(o.value)));
    }
    static bool is_nan(const Value& v) noexcept {
      return v.is_real() && std::isnan(v.as_real());
    }
  };
  struct FieldKeyHash {
    std::size_t operator()(const FieldKey& k) const noexcept {
      return k.value.hash() * 0x9e3779b97f4a7c15ULL + k.field;
    }
  };
  struct Loc {
    std::uint32_t group = 0;
    std::uint32_t row = 0;
  };

  std::uint32_t group_for_arity(std::size_t arity);
  void unindex(Bucket& bucket, Id id) const;

  std::vector<ColumnGroup> groups_;
  std::unordered_map<std::size_t, std::uint32_t> group_of_arity_;
  std::vector<Loc> locs_;
  std::vector<bool> alive_;
  /// Per-slot insertion stamp (version() at insert): strictly increasing
  /// along every bucket, so remove() finds an id by binary search.
  std::vector<std::uint64_t> inserted_at_;
  std::vector<Id> free_list_;
  std::size_t live_count_ = 0;
  std::uint64_t dead_rows_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t column_compactions_ = 0;
  std::unordered_map<FieldKey, Bucket, FieldKeyHash> field_index_;
  std::unordered_map<std::size_t, Bucket> arity_index_;
};

/// Process-wide count of column-group compactions (all stores); engines
/// report per-run deltas as the `store.column_compactions` metric.
[[nodiscard]] std::uint64_t column_compactions_total() noexcept;

struct Match {
  const Reaction* reaction = nullptr;
  std::vector<Store::Id> ids;  // one per pattern, all distinct
  expr::Env env;               // bindings from the replace list
  std::vector<Element> produced;  // outputs of the firing branch
};

/// Finds one enabled match for `reaction` (patterns match AND a branch
/// fires). With `rng`, candidate buckets are probed starting at random
/// offsets so repeated calls are fair; without, the first match in bucket
/// order is returned (deterministic). `mode` selects how conditions and
/// outputs are evaluated once the patterns match — the AST walker (default,
/// reference semantics), the reaction's compiled bytecode, or batch bitmap
/// evaluation over the innermost candidate column batch; all produce
/// identical Matches, engines pass RunOptions::eval_mode(). Read-only, so
/// concurrent searchers may call it under a shared lock.
/// Delegates to runtime::MatchPipeline::find (the one implementation).
[[nodiscard]] std::optional<Match> find_match(
    const Store& store, const Reaction& reaction, Rng* rng = nullptr,
    expr::EvalMode mode = expr::EvalMode::Ast);

/// Invokes `fn` for every enabled match (ordered tuples of distinct
/// elements), stopping early when fn returns false or `limit` matches were
/// visited. Returns the number visited. Exponential in reaction arity —
/// meant for small multisets (semantics tests) and match counting.
std::size_t enumerate_matches(const Store& store, const Reaction& reaction,
                              std::size_t limit,
                              const std::function<bool(const Match&)>& fn,
                              expr::EvalMode mode = expr::EvalMode::Ast);

/// Applies a found match: removes the consumed ids, inserts the produced
/// elements. Precondition: all ids alive.
void commit(Store& store, const Match& match);

}  // namespace gammaflow::gamma
