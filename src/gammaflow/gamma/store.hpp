// Indexed element store: the engines' internal multiset representation,
// laid out as a structure-of-arrays. Elements live in per-arity COLUMN
// GROUPS: each field is a contiguous int64 payload column with a tag byte
// per row, so a compiled condition can sweep a whole candidate batch
// without touching a Value variant per field. Every kind is inline: an Int
// is itself, a Bool 0/1, a Real its bits, Nil 0, and a string the id of an
// entry in the store's SYMBOL TABLE, where each distinct string is kept
// once. A string is hashed once, when insert() interns it; remove(), the
// field checks and a join probe whose value was bound from the store
// compare and hash ids only. A per-row liveness bitmap masks removed rows;
// dead rows are the garbage debt, counted exactly at remove() time.
//
// Reaction matching probes a candidate bucket instead of scanning the
// multiset. A pattern with no literal key probes its ARITY BUCKET, which is
// the live rows of its arity's column group: rows only append and
// compact() keeps their order, so those rows are exactly the arity's
// elements in insertion order. The liveness bitmap carries rank/select (a
// Fenwick tree over its words' popcounts), so remove() clears a bit in
// O(log n), "the k-th live element" is a select, and "entries stamped at or
// after s" is a binary search of the group's per-row stamp column. A
// pattern with a literal key, and a join's bound value, probe a
// (field, value) bucket: an id list kept for the fields of the store's
// FieldSet only, the fields some pattern of the program constrains (a
// literal key or a join field), the only ones a search ever probes. Other
// fields cost insert() and remove() nothing.
// Buckets are EXACT: every bucket lists precisely the live occupants with
// its key, in insertion order, at all times. insert() appends and records,
// per live id, the bucket slot of each of its indexed fields; remove()
// clears the row's live bit and unindexes the id from those buckets through
// the recorded slots, with no hash (binary search on the per-slot insertion
// stamp, then an ordered erase — these buckets are the narrow ones). Nothing
// in a bucket is ever stale, which keeps lookups read-only (safe for
// concurrent readers) and keeps the seeded pick stream — rng->bounded(bucket
// size), then a cyclic scan in insertion order — independent of when garbage
// was last collected.
//
// The (field, value) buckets live in a BUCKET TABLE: a vector of id lists
// the store owns, with a generation per slot, and a hash index from
// (field, tag, payload) to slot. A lookup hashes the key once and returns a
// BucketHandle (slot, generation) that finds the same bucket again with no
// hash: field_bucket(handle) is a bounds check and a generation compare.
// A bucket that empties keeps its slot, so a key that empties and refills
// between compactions keeps its handle; compact() frees the empty slots and
// bumps their generations, so a handle to a freed or reused slot reads as
// stale. A handle names a slot, not an address, so it stays valid in a
// copy of the store (the cluster checkpoints whole nodes, memos included).
// compact() also rewrites column groups densely (inserts self-trigger it
// once the dead-row debt crosses the threshold, so long worklist runs stay
// O(live)) and, in the same pass, frees the symbols no live row holds: a
// symbol's buckets are empty by then, so no key names a freed id. A live
// row's buckets are never empty, so compact() never frees a slot a live id
// recorded.
//
// A fire never turns a label back into a Value. A reaction's literal
// strings are PINNED in the store when the reaction binds to it (pin(): one
// holder each, for the store's life, so compact() never frees them), and a
// Match carries its outputs as this store's cells: a field copied from a
// bound element is that element's cell, a literal its pinned cell. replace()
// commits a Match with no string copied and none hashed but a computed one.
//
// The matching machinery itself (backtracking candidate search, batch
// bitmap evaluation, commit) lives in
// runtime/match_pipeline.hpp — one implementation for every engine.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gammaflow/common/inline_vec.hpp"
#include "gammaflow/common/rank_bitmap.hpp"
#include "gammaflow/gamma/frame.hpp"
#include "gammaflow/gamma/multiset.hpp"
#include "gammaflow/gamma/program.hpp"
#include "gammaflow/gamma/reaction.hpp"

namespace gammaflow::gamma {

struct Match;

/// Work the stores of this thread have done, counted for the work-count
/// tests: strings hashed into a symbol index, lookups of the (field, value)
/// index, ids an ordered unindex shifted, rows compact() copied, and rows
/// inserted. Monotone; read the delta over the operation of interest.
struct StoreWork {
  std::uint64_t symbol_hashes = 0;
  std::uint64_t index_lookups = 0;
  std::uint64_t ids_shifted = 0;
  std::uint64_t rows_copied = 0;
  std::uint64_t rows_inserted = 0;
};
/// This thread's counts so far.
[[nodiscard]] StoreWork store_work() noexcept;

/// The element fields a Store keeps (field, value) buckets for. A search
/// probes a field bucket only for a pattern's key constraint (its first
/// literal field) and for its join fields (CompiledReaction::joins()), so
/// the set a program needs is those fields over all its reactions; indexing
/// any other field would only slow insert() and remove().
class FieldSet {
 public:
  FieldSet() = default;
  FieldSet(std::initializer_list<std::size_t> fields) {
    for (const std::size_t f : fields) add(f);
  }
  /// The key-constraint and join fields of every reaction of every stage.
  [[nodiscard]] static FieldSet of(const Program& program);
  [[nodiscard]] static FieldSet of(const Reaction& reaction);

  /// Adds the reaction's key-constraint and join fields.
  void add(const Reaction& reaction);

  [[nodiscard]] bool contains(std::size_t field) const noexcept;
  /// Ascending, no duplicates.
  [[nodiscard]] const std::vector<std::size_t>& fields() const noexcept {
    return fields_;
  }

 private:
  void add(std::size_t field);

  std::vector<std::size_t> fields_;
};

class Store {
 public:
  using Id = std::uint32_t;

  /// A (field, value) bucket: the live ids carrying one key, in insertion
  /// order. Exact — no dead or reused slots.
  using Bucket = std::vector<Id>;

  /// A (field, value) bucket's slot in the bucket table and the slot's
  /// generation when the handle was taken. The default handle is stale.
  struct BucketHandle {
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    std::uint32_t slot = kNoSlot;
    std::uint32_t generation = 0;
  };

  /// One field as a column holds it: its ValueKind tag and an int64
  /// payload — the Int itself, 0/1 for a Bool, a Real's bits, a string's
  /// symbol id in this store's table, 0 for Nil.
  struct Cell {
    std::uint8_t tag = 0;
    std::int64_t payload = 0;
  };
  /// The tag of a cell that no column holds, so it equals no field and keys
  /// no bucket: a string this store has not interned. In a Match's outputs
  /// its payload indexes the string in Match::texts.
  static constexpr std::uint8_t kTextTag = 0xff;

  /// `v` as a cell, when `v` is not a string (a string needs a table).
  [[nodiscard]] static Cell inline_cell(const Value& v) noexcept;

  /// One field of a column group: `data[row]` is the payload and
  /// `tags[row]` the ValueKind. Read-only outside Store; the batch matcher
  /// reads them directly for its dense sweeps.
  struct Column {
    std::vector<std::int64_t> data;
    std::vector<std::uint8_t> tags;

    /// Row `row` holds a field equal to `c`: the same kind and an equal
    /// payload, Reals compared by value (-0.0 == 0.0, a NaN equals nothing).
    [[nodiscard]] bool holds(std::size_t row, Cell c) const noexcept {
      if (tags[row] != c.tag) return false;
      if (c.tag == static_cast<std::uint8_t>(ValueKind::Real)) {
        return std::bit_cast<double>(data[row]) ==
               std::bit_cast<double>(c.payload);
      }
      return data[row] == c.payload;
    }
  };

  /// Per-arity SoA block: `cols[f]` holds field f of every element of this
  /// arity ever inserted (dead rows linger until compaction — the liveness
  /// bitmap masks them out). Row order is append order, which is insertion
  /// order; compact() preserves it while dropping dead rows. So the live
  /// rows are the arity bucket.
  struct ColumnGroup {
    std::size_t arity = 0;
    std::vector<Column> cols;
    std::vector<Id> row_ids;  // row -> current slot id at insert time
    /// Row -> its insertion stamp (Store::stamp of the occupant), strictly
    /// increasing down the rows.
    std::vector<std::uint64_t> stamps;
    RankBitmap live;  // one position per row, dead included

    [[nodiscard]] std::size_t rows() const noexcept { return live.size(); }
    [[nodiscard]] std::size_t live_rows() const noexcept {
      return live.count();
    }
    [[nodiscard]] bool row_live(std::size_t row) const noexcept {
      return live.test(row);
    }
    /// The first row, live or dead, stamped at or after `stamp`, or rows()
    /// when there is none. One binary search.
    [[nodiscard]] std::size_t first_row_stamped(
        std::uint64_t stamp) const noexcept {
      return static_cast<std::size_t>(
          std::lower_bound(stamps.begin(), stamps.end(), stamp) -
          stamps.begin());
    }
  };

  /// The bucket a pattern probes, as a view: a (field, value) bucket's id
  /// list, or an arity's column group, whose live rows are that arity's
  /// elements. Either way the live ids in insertion order. Valid until the
  /// next mutation.
  struct Candidates {
    const Bucket* ids = nullptr;
    const ColumnGroup* group = nullptr;

    /// False when no such bucket exists (nothing can match).
    explicit operator bool() const noexcept {
      return ids != nullptr || group != nullptr;
    }
    [[nodiscard]] std::size_t size() const noexcept {
      if (ids != nullptr) return ids->size();
      return group != nullptr ? group->live_rows() : 0;
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    /// The k-th id (for a group, a select over its live rows).
    /// Precondition: k < size().
    [[nodiscard]] Id operator[](std::size_t k) const noexcept {
      return ids != nullptr ? (*ids)[k] : group->row_ids[group->live.select(k)];
    }
  };

  /// Where an id's current occupant lives in the column groups.
  struct RowRef {
    const ColumnGroup* group = nullptr;
    std::uint32_t row = 0;
  };

  /// An empty store indexing no field.
  Store() = default;
  /// An empty store indexing the fields in `indexed`.
  explicit Store(FieldSet indexed) : indexed_(std::move(indexed)) {}
  Store(const Multiset& m, FieldSet indexed) : indexed_(std::move(indexed)) {
    for (const Element& e : m) insert(e);
  }

  Id insert(const Element& e) { return insert(std::span(e.fields())); }
  /// Inserts the element with these fields, written straight into the
  /// columns; each string is hashed once, to intern it.
  Id insert(std::span<const Value> fields);
  /// Unindexes `id` through the bucket slots its insert recorded and
  /// releases its symbols: no hash. Throws EngineError when `id` is dead.
  void remove(Id id);
  /// One step of (M - {x..}) + A(x..): removes the match's ids, then inserts
  /// its output tuples. A symbol cell is held again with no hash (it is held
  /// before the removes, so no compaction between frees it); a kTextTag
  /// cell's string is interned. Precondition: the match was found on this
  /// store, or on a copy with the same symbols, and its ids are alive.
  void replace(const Match& match);
  /// Inserts `other`'s live elements in the order `other` stamped them
  /// (its insertion order): how the parallel engine merges two parts.
  void append(const Store& other);

  [[nodiscard]] bool alive(Id id) const noexcept {
    return id < locs_.size() && ((alive_[id >> 6] >> (id & 63)) & 1) != 0;
  }
  /// One past the highest slot id ever handed out: every live id is below
  /// it, in the slot order to_multiset() lists them in.
  [[nodiscard]] Id slots() const noexcept {
    return static_cast<Id>(locs_.size());
  }
  /// The k-th live id in slot order: the id of the k-th element
  /// to_multiset() lists. Counts 64 slots at a time. Precondition:
  /// k < size().
  [[nodiscard]] Id nth_live(std::size_t k) const noexcept;
  /// The element at `id`, materialized from its column-group row.
  /// Precondition: alive(id).
  [[nodiscard]] Element element(Id id) const;
  /// Column-group coordinates of `id`'s slot (batch gather). Precondition:
  /// alive(id); valid until the next mutation.
  [[nodiscard]] RowRef row(Id id) const noexcept {
    const Loc loc = locs_[id];
    return RowRef{&groups_[loc.group], loc.row};
  }
  /// Runs one pattern's frame ops (CompiledReaction::field_ops()) on the
  /// element at `id`, straight off the columns: checks its arity, literal
  /// and Eq fields, and binds its Bind fields into `frame` — Int, Real,
  /// Bool and Nil payloads in place, a string by reference to its symbol
  /// table entry (valid until the next mutation). False on a mismatch, with
  /// the pattern's Bind slots then unspecified. The scalar probe of the
  /// match pipeline; the same verdict and bindings as
  /// Pattern::match(element(id), env). Precondition: alive(id).
  /// `literals` are the reaction's literals as this store's cells
  /// (CompiledReaction::literals(), a string never interned a kTextTag
  /// cell); Lit ops compare cells.
  [[nodiscard]] bool bind(std::span<const FieldOp> ops, Id id, Frame& frame,
                          std::span<const Cell> literals) const;
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// The cell every field equal to `v` holds in this store (compare it with
  /// Column::holds), or nullopt when no field can equal `v`: a string this
  /// store never interned. Hashes a string only when it is not a symbol
  /// table entry itself.
  [[nodiscard]] std::optional<Cell> cell_of(const Value& v) const;
  /// The cell of `v` when `v` is an entry of this store's symbol table
  /// itself (a string a frame slot bound from the store), read off its
  /// address with no hash; nullopt for any other value.
  [[nodiscard]] std::optional<Cell> symbol_cell(const Value& v) const noexcept {
    const auto id = symbol_at(v);
    if (!id) return std::nullopt;
    return Cell{static_cast<std::uint8_t>(ValueKind::Str), *id};
  }
  /// The value a cell of this store holds (not a kTextTag cell).
  [[nodiscard]] Value value(Cell c) const;

  /// The cell of `v`, a string interned for the store's life: pinned
  /// strings hold one holder each that nothing releases, so compact() never
  /// frees them and their cells stay valid in this store and in its copies.
  /// Pinning a pinned string adds nothing. A non-string is its inline cell.
  Cell pin(const Value& v);
  /// Strings pin() has pinned.
  [[nodiscard]] std::size_t pinned_symbols() const noexcept {
    return pinned_count_;
  }
  /// Holders of the string `text` in the symbol table: the live fields
  /// holding it, plus one when it is pinned; 0 when it is not interned.
  [[nodiscard]] std::size_t symbol_holders(std::string_view text) const;
  /// Shared by a store and its copies, and by no other store: a cell pinned
  /// in a store of one lineage is valid in every store of that lineage.
  [[nodiscard]] std::uint64_t lineage() const noexcept { return lineage_; }

  /// Live elements whose field `field` equals `value`: the size of its
  /// (field, value) bucket when `field` is indexed, otherwise a sweep of
  /// the column comparing cells. 0 at once for a string never interned.
  [[nodiscard]] std::size_t count_field(std::size_t field,
                                        const Value& value) const;

  /// Strings the symbol table holds: every one a live row holds, plus
  /// those released since the last compact().
  [[nodiscard]] std::size_t symbol_count() const noexcept {
    return symbols_.size() - free_symbols_.size();
  }
  /// Entries of the symbol table, freed ones (awaiting reuse) included.
  [[nodiscard]] std::size_t symbol_slots() const noexcept {
    return symbols_.size();
  }

  /// The live elements of arity `arity` (its column group), in insertion
  /// order; false when no element of that arity was ever inserted.
  [[nodiscard]] Candidates arity_bucket(std::size_t arity) const noexcept {
    return Candidates{nullptr, group_of(arity)};
  }

  /// The (field,value) bucket: live ids of ANY arity whose field `field`
  /// holds `value`, or null when none does. Real -0.0 and 0.0 share a
  /// bucket (they are ==), Int 1 and Real 1.0 do not, and a NaN key finds
  /// the ids carrying any NaN, which no binder matches. So it holds every id a
  /// pattern whose field `field` must equal `value` can match. Read-only;
  /// valid until the next mutation. Throws EngineError when `field` is not
  /// in the store's FieldSet: the search reads null as "nothing can match",
  /// so a null for an unindexed field would be a false fixpoint proof.
  [[nodiscard]] const Bucket* field_bucket(std::size_t field,
                                           const Value& value) const;

  /// The handle of the (field,value) bucket, found by one hash lookup, or
  /// the stale default handle when no bucket holds the key. Throws like
  /// field_bucket(field, value) on an unindexed field.
  [[nodiscard]] BucketHandle field_handle(std::size_t field,
                                          const Value& value) const;
  /// The same for the key's cell in this store: one lookup of the
  /// (field, value) index, no string hashed.
  [[nodiscard]] BucketHandle field_handle(std::size_t field, Cell key) const;

  /// The handle of the (field, value) bucket that holds `id`, its value at
  /// `field` being the key: the slot its insert recorded, with no hash. The
  /// stale default handle when `field` is not indexed. Precondition:
  /// alive(id) and `field` below id's arity.
  [[nodiscard]] BucketHandle bucket_of(Id id,
                                       std::size_t field) const noexcept {
    const std::vector<std::size_t>& indexed = indexed_.fields();
    const auto at = std::lower_bound(indexed.begin(), indexed.end(), field);
    if (at == indexed.end() || *at != field) return BucketHandle{};
    const std::uint32_t slot =
        id_buckets_[std::size_t{id} * indexed.size() +
                    static_cast<std::size_t>(at - indexed.begin())];
    return BucketHandle{slot, bucket_generations_[slot]};
  }

  /// The bucket `handle` names, with no hash lookup: null when the handle
  /// is stale (its slot was freed by compact() since). A valid handle's
  /// bucket may be empty: every element carrying its key was removed since
  /// the last compaction, so nothing with that key can match. Read-only;
  /// valid until the next mutation.
  [[nodiscard]] const Bucket* field_bucket(BucketHandle handle) const noexcept {
    return handle.slot < bucket_generations_.size() &&
                   bucket_generations_[handle.slot] == handle.generation
               ? &buckets_[handle.slot]
               : nullptr;
  }

  /// Where a cyclic scan of `narrow` must start to visit the ids it shares
  /// with a wider bucket in the same order as a cyclic scan of that bucket
  /// starting at its entry `id`: the first entry of `narrow` inserted no
  /// earlier than `id`, or 0 when there is none (the scan wraps). Both
  /// buckets are in insertion order, so this is one binary search.
  [[nodiscard]] std::size_t scan_position(const Bucket& narrow, Id id) const;

  /// The insertion stamp of `id`'s current occupant: version() at its
  /// insert. Unique per insert, so a reused slot gets a new stamp, and
  /// strictly increasing along every bucket. Precondition: alive(id).
  [[nodiscard]] std::uint64_t stamp(Id id) const noexcept {
    return inserted_at_[id];
  }

  /// Index of the first entry of `bucket` stamped at or after `stamp`, or
  /// bucket.size() when there is none. One binary search (on a group, over
  /// its row stamps, then a rank).
  [[nodiscard]] std::size_t first_stamped(Candidates bucket,
                                          std::uint64_t stamp) const;

  /// Number of non-empty (field,value) buckets: the live distinct
  /// (field,value) pairs over the indexed fields.
  [[nodiscard]] std::size_t field_bucket_count() const noexcept {
    return field_index_.size() - empty_buckets_;
  }

  /// Dead rows still occupying column-group storage — the garbage debt.
  /// Exact: counted at remove().
  [[nodiscard]] std::uint64_t dead_rows() const noexcept { return dead_rows_; }

  /// insert() collects once the garbage debt reaches this many dead rows
  /// (or when dead rows dwarf live ones), so batch sweeps and memory stay
  /// O(live).
  static constexpr std::uint64_t kGarbageCompactThreshold = 4096;

  /// Rewrites every column group densely (dropping dead rows), settling
  /// the garbage debt, frees the bucket table's empty slots (their handles
  /// go stale) and the symbols no live row holds and no pin holds (their
  /// entries are cleared, so a freed id never reads as its old string).
  /// Field buckets hold ids, not rows, so they need no rewrite.
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
  /// A bucket's key: the field and its cell, with a Real's payload
  /// normalized so that -0.0 and 0.0 share a key and every NaN shares one
  /// (a NaN field must still find its own bucket when remove() unindexes
  /// it).
  struct FieldKey {
    std::size_t field;
    std::uint8_t tag;
    std::int64_t payload;
    FieldKey(std::size_t f, Cell c) noexcept;
    bool operator==(const FieldKey& o) const noexcept = default;
  };
  struct FieldKeyHash {
    std::size_t operator()(const FieldKey& k) const noexcept {
      const auto x = (static_cast<std::uint64_t>(k.payload) ^
                      (std::uint64_t{k.tag} << 56)) *
                     0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>((x ^ (x >> 29)) + k.field);
    }
  };
  struct Loc {
    std::uint32_t group = 0;
    std::uint32_t row = 0;
  };

  /// Field f of `r`'s row equals `v`, read off the column: nothing is
  /// materialized and nothing hashed. A string `v` held in this store's
  /// symbol table (a frame slot the store bound) compares ids; any other
  /// string compares its text with the row's symbol.
  [[nodiscard]] bool field_equals(RowRef r, std::size_t f,
                                  const Value& v) const noexcept;
  /// Self-triggered collection before an insert (see insert()).
  void maybe_compact();
  /// `v` as a cell, interning a string (and counting the new holder).
  Cell intern(const Value& v);
  /// A cell that holds a symbol drops one holder.
  void release(Cell c);
  /// The symbol index entry holding `text` (whose text_hash is `hash`),
  /// or the empty entry where it would go.
  [[nodiscard]] std::size_t index_slot(std::string_view text,
                                       std::uint32_t hash) const noexcept;
  /// The symbol id an index entry holds.
  [[nodiscard]] static std::uint32_t entry_id(std::uint64_t entry) noexcept {
    return static_cast<std::uint32_t>(entry) - 1;
  }
  /// The text of the symbol an index entry holds.
  [[nodiscard]] const std::string& symbol_text(
      std::uint64_t entry) const noexcept {
    return *symbols_[entry_id(entry)].if_str();
  }
  /// Drops symbol `id` from the symbol index.
  void unindex_symbol(std::uint32_t id) noexcept;
  /// A lineage no store has had.
  static std::uint64_t next_lineage() noexcept;
  /// The symbol id of `v` when it is an entry of the symbol table itself.
  [[nodiscard]] std::optional<std::uint32_t> symbol_at(
      const Value& v) const noexcept;
  /// The symbol id of `text` when the table holds it (one hash).
  [[nodiscard]] std::optional<std::uint32_t> symbol_of(
      std::string_view text) const noexcept;
  /// Appends a row of `arity` fields, field f being cell_of_field(f) (a
  /// symbol already counted), and indexes it.
  template <typename CellOf>
  Id insert_row(std::size_t arity, CellOf&& cell_of_field);
  /// Frees every symbol no live row holds (part of compact()).
  void free_unheld_symbols();
  std::uint32_t group_for_arity(std::size_t arity);
  [[nodiscard]] const ColumnGroup* group_of(std::size_t arity) const noexcept;
  /// First entry of `bucket` inserted no earlier than `stamp`.
  [[nodiscard]] Bucket::const_iterator lower_bound(const Bucket& bucket,
                                                   std::uint64_t stamp) const;
  void unindex(Bucket& bucket, Id id) const;
  /// The table slot for a new (field, value) bucket: a freed one if any.
  std::uint32_t new_bucket_slot();

  FieldSet indexed_;
  std::vector<ColumnGroup> groups_;
  /// Arity -> group index + 1; 0 (or past the end) for no group yet.
  std::vector<std::uint32_t> group_of_arity_;
  std::vector<Loc> locs_;
  std::vector<std::uint64_t> alive_;  // liveness by slot id, 64 per word
  /// Per-slot insertion stamp (version() at insert): strictly increasing
  /// along every field bucket, so remove() finds an id by binary search.
  std::vector<std::uint64_t> inserted_at_;
  std::vector<Id> free_list_;
  /// Per slot id, the bucket table slot of each indexed field its occupant
  /// has (indexed_.fields() order, those below its arity): remove() finds
  /// the buckets with no hash.
  std::vector<std::uint32_t> id_buckets_;
  std::size_t live_count_ = 0;
  std::uint64_t dead_rows_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t column_compactions_ = 0;
  /// The bucket table: slot -> bucket and slot -> generation; freed slots
  /// are empty and wait on the free list.
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> bucket_generations_;
  std::vector<std::uint32_t> free_buckets_;
  /// Slots in field_index_ whose bucket is empty (freed by compact()).
  std::size_t empty_buckets_ = 0;
  std::unordered_map<FieldKey, std::uint32_t, FieldKeyHash> field_index_;
  /// The symbol table: id -> string Value (Nil once freed), id -> live
  /// fields holding it, and freed ids awaiting reuse.
  std::vector<Value> symbols_;
  std::vector<std::uint32_t> symbol_holders_;
  std::vector<std::uint32_t> free_symbols_;
  /// Symbols whose holder count fell to 0 since the last compact().
  std::vector<std::uint32_t> unheld_symbols_;
  /// Id -> 1 when pin() pinned it (then never freed).
  std::vector<std::uint8_t> symbol_pinned_;
  std::size_t pinned_count_ = 0;
  std::uint64_t lineage_ = next_lineage();
  /// Text -> symbol id, open addressing with linear probing over a
  /// power-of-two table at most half full: an entry packs the text's hash
  /// (high half) and id + 1 (low half); 0 is empty.
  std::vector<std::uint64_t> symbol_index_;
};

/// Process-wide count of column-group compactions (all stores); engines
/// report per-run deltas as the `store.column_compactions` metric.
[[nodiscard]] std::uint64_t column_compactions_total() noexcept;

/// One enabled match of a reaction, as runtime::MatchPipeline finds it:
/// which elements, which branch fires, and the fields that branch produces.
/// Everything is inline for the reaction sizes the paper uses, so finding
/// and committing a match allocates nothing.
struct Match {
  const Reaction* reaction = nullptr;
  InlineVec<Store::Id, 4> ids;  // one per pattern, all distinct
  std::uint32_t branch = 0;     // index of the firing branch
  /// The firing branch's output fields as cells of the store searched,
  /// tuple after tuple, evaluated when the match was found (so an
  /// evaluation error surfaces at the search, as the walker's does). A
  /// string that is not a symbol there yet (a computed one) is a kTextTag
  /// cell whose payload indexes `texts`.
  InlineVec<Store::Cell, 8> outputs;
  InlineVec<Value, 2> texts;

  /// Calls fn(std::span<const Store::Cell>) once per produced tuple, in
  /// order.
  template <typename Fn>
  void for_each_output(Fn&& fn) const {
    const Store::Cell* at = outputs.data();
    for (const auto& tuple : reaction->branches()[branch].outputs) {
      fn(std::span<const Store::Cell>(at, tuple.size()));
      at += tuple.size();
    }
  }
  /// The produced tuples as Elements, read off `store` (the store searched
  /// or a copy of it): journals, WAL, tests.
  [[nodiscard]] std::vector<Element> produced(const Store& store) const;
};

}  // namespace gammaflow::gamma
