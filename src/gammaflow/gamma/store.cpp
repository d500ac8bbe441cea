#include "gammaflow/gamma/store.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

namespace gammaflow::gamma {

namespace {
std::atomic<std::uint64_t> g_column_compactions{0};
std::atomic<std::uint64_t> g_lineages{0};
thread_local StoreWork t_work;

constexpr std::uint8_t tag_of(ValueKind kind) noexcept {
  return static_cast<std::uint8_t>(kind);
}
constexpr std::uint8_t kNilTag = tag_of(ValueKind::Nil);
constexpr std::uint8_t kIntTag = tag_of(ValueKind::Int);
constexpr std::uint8_t kRealTag = tag_of(ValueKind::Real);
constexpr std::uint8_t kBoolTag = tag_of(ValueKind::Bool);
constexpr std::uint8_t kStrTag = tag_of(ValueKind::Str);

/// A symbol's text hash: its home slot in the symbol index, and the tag
/// an index entry keeps to skip most text compares.
std::uint32_t text_hash(std::string_view text) noexcept {
  ++t_work.symbol_hashes;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ text.size();
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, text.data() + i, 8);
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, text.data() + i, text.size() - i);
  return static_cast<std::uint32_t>(((h ^ tail) * 0x94d049bb133111ebULL) >>
                                    32);
}

}  // namespace

StoreWork store_work() noexcept { return t_work; }

std::uint64_t Store::next_lineage() noexcept {
  return g_lineages.fetch_add(1, std::memory_order_relaxed) + 1;
}

Store::Cell Store::inline_cell(const Value& v) noexcept {
  if (const std::int64_t* i = v.if_int()) return {kIntTag, *i};
  switch (v.kind()) {
    case ValueKind::Real:
      return {kRealTag, std::bit_cast<std::int64_t>(v.as_real())};
    case ValueKind::Bool:
      return {kBoolTag, *v.if_bool() ? 1 : 0};
    default:
      return {kNilTag, 0};
  }
}

Store::FieldKey::FieldKey(std::size_t f, Cell c) noexcept
    : field(f), tag(c.tag), payload(c.payload) {
  if (tag != kRealTag) return;
  const double d = std::bit_cast<double>(payload);
  if (d == 0.0) {
    payload = 0;  // -0.0 == 0.0
  } else if (std::isnan(d)) {
    payload = std::bit_cast<std::int64_t>(
        std::numeric_limits<double>::quiet_NaN());
  }
}

Value Store::value(Cell c) const {
  switch (c.tag) {
    case kIntTag:
      return Value(c.payload);
    case kRealTag:
      return Value(std::bit_cast<double>(c.payload));
    case kBoolTag:
      return Value(c.payload != 0);
    case kStrTag:
      return symbols_[static_cast<std::size_t>(c.payload)];
    default:
      return Value();
  }
}

FieldSet FieldSet::of(const Program& program) {
  FieldSet set;
  for (const auto& stage : program.stages()) {
    for (const Reaction& r : stage) set.add(r);
  }
  return set;
}

FieldSet FieldSet::of(const Reaction& reaction) {
  FieldSet set;
  set.add(reaction);
  return set;
}

void FieldSet::add(std::size_t field) {
  const auto it = std::lower_bound(fields_.begin(), fields_.end(), field);
  if (it == fields_.end() || *it != field) fields_.insert(it, field);
}

void FieldSet::add(const Reaction& reaction) {
  for (const Pattern& p : reaction.patterns()) {
    if (const auto key = p.key_field()) add(*key);
  }
  for (const auto& joins : reaction.compiled().joins()) {
    for (const CompiledReaction::JoinField& j : joins) add(j.field);
  }
}

bool FieldSet::contains(std::size_t field) const noexcept {
  return std::binary_search(fields_.begin(), fields_.end(), field);
}

std::optional<std::uint32_t> Store::symbol_at(const Value& v) const noexcept {
  // Addresses compared as integers: `v` may lie in any object.
  const auto at = reinterpret_cast<std::uintptr_t>(&v);
  const auto first = reinterpret_cast<std::uintptr_t>(symbols_.data());
  if (at < first || at >= first + symbols_.size() * sizeof(Value)) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>((at - first) / sizeof(Value));
}

bool Store::field_equals(RowRef r, std::size_t f,
                         const Value& v) const noexcept {
  const Column& c = r.group->cols[f];
  if (const std::int64_t* i = v.if_int()) {
    return c.tags[r.row] == kIntTag && c.data[r.row] == *i;
  }
  if (!v.is_str()) return c.holds(r.row, inline_cell(v));
  if (c.tags[r.row] != kStrTag) return false;
  const auto id = static_cast<std::uint32_t>(c.data[r.row]);
  if (const auto sym = symbol_at(v)) return *sym == id;
  return *symbols_[id].if_str() == *v.if_str();
}

std::optional<Store::Cell> Store::cell_of(const Value& v) const {
  if (!v.is_str()) return inline_cell(v);
  auto sym = symbol_at(v);
  if (!sym) sym = symbol_of(*v.if_str());
  if (!sym) return std::nullopt;
  return Cell{kStrTag, *sym};
}

std::optional<std::uint32_t> Store::symbol_of(
    std::string_view text) const noexcept {
  const std::size_t at = index_slot(text, text_hash(text));
  if (symbol_index_.empty() || symbol_index_[at] == 0) return std::nullopt;
  return entry_id(symbol_index_[at]);
}

std::size_t Store::index_slot(std::string_view text,
                              std::uint32_t hash) const noexcept {
  if (symbol_index_.empty()) return 0;
  const std::size_t mask = symbol_index_.size() - 1;
  for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
    const std::uint64_t entry = symbol_index_[at];
    if (entry == 0) return at;
    if (entry >> 32 == hash && symbol_text(entry) == text) {
      return at;
    }
  }
}

Store::Cell Store::intern(const Value& v) {
  if (!v.is_str()) return inline_cell(v);
  const std::string& text = *v.if_str();
  const std::uint32_t hash = text_hash(text);
  // Kept at most half full, so a probe always meets an empty entry.
  if (2 * (symbol_count() + 1) > symbol_index_.size()) {
    std::vector<std::uint64_t> old(
        std::max<std::size_t>(16, 2 * symbol_index_.size()), 0);
    old.swap(symbol_index_);
    for (const std::uint64_t held : old) {
      if (held == 0) continue;
      symbol_index_[index_slot(symbol_text(held),
                               static_cast<std::uint32_t>(held >> 32))] =
          held;
    }
  }
  std::uint64_t& entry = symbol_index_[index_slot(text, hash)];
  if (entry == 0) {
    std::uint32_t id;
    if (free_symbols_.empty()) {
      id = static_cast<std::uint32_t>(symbols_.size());
      symbols_.push_back(v);
      symbol_holders_.push_back(0);
      symbol_pinned_.push_back(0);
    } else {
      id = free_symbols_.back();
      free_symbols_.pop_back();
      symbols_[id] = v;
    }
    entry = std::uint64_t{hash} << 32 | (id + 1);
  }
  const std::uint32_t id = entry_id(entry);
  ++symbol_holders_[id];
  return Cell{kStrTag, id};
}

Store::Cell Store::pin(const Value& v) {
  const Cell c = intern(v);
  if (c.tag != kStrTag) return c;
  const auto id = static_cast<std::size_t>(c.payload);
  if (symbol_pinned_[id] != 0) {
    --symbol_holders_[id];  // the pin already holds it
  } else {
    symbol_pinned_[id] = 1;
    ++pinned_count_;
  }
  return c;
}

std::size_t Store::symbol_holders(std::string_view text) const {
  const auto id = symbol_of(text);
  return id ? symbol_holders_[*id] : 0;
}

void Store::unindex_symbol(std::uint32_t id) noexcept {
  const std::string& text = *symbols_[id].if_str();
  const std::size_t mask = symbol_index_.size() - 1;
  std::size_t hole = index_slot(text, text_hash(text));
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically after the hole.
  for (std::size_t at = (hole + 1) & mask; symbol_index_[at] != 0;
       at = (at + 1) & mask) {
    const std::size_t home = (symbol_index_[at] >> 32) & mask;
    if (((at - home) & mask) >= ((at - hole) & mask)) {
      symbol_index_[hole] = symbol_index_[at];
      hole = at;
    }
  }
  symbol_index_[hole] = 0;
}

void Store::release(Cell c) {
  if (c.tag != kStrTag) return;
  const auto id = static_cast<std::uint32_t>(c.payload);
  if (--symbol_holders_[id] == 0) unheld_symbols_.push_back(id);
}

std::uint32_t Store::group_for_arity(std::size_t arity) {
  if (arity < group_of_arity_.size() && group_of_arity_[arity] != 0) {
    return group_of_arity_[arity] - 1;
  }
  const auto gi = static_cast<std::uint32_t>(groups_.size());
  if (group_of_arity_.size() <= arity) group_of_arity_.resize(arity + 1, 0);
  group_of_arity_[arity] = gi + 1;
  groups_.emplace_back();
  groups_.back().arity = arity;
  groups_.back().cols.resize(arity);
  return gi;
}

const Store::ColumnGroup* Store::group_of(std::size_t arity) const noexcept {
  if (arity >= group_of_arity_.size() || group_of_arity_[arity] == 0) {
    return nullptr;
  }
  return &groups_[group_of_arity_[arity] - 1];
}

void Store::maybe_compact() {
  // Self-triggered collection: without it, append-only rows would grow with
  // TOTAL firings, not live elements, and batch sweeps would scan the dead.
  // Never runs mid-search (searches don't insert), so gathered row
  // coordinates stay valid within any one find().
  if (dead_rows_ >= kGarbageCompactThreshold ||
      dead_rows_ > 4 * live_count_ + 256) {
    compact();
  }
}

template <typename CellOf>
Store::Id Store::insert_row(std::size_t arity, CellOf&& cell_of_field) {
  Id id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<Id>(locs_.size());
    locs_.push_back(Loc{});
    if ((id & 63) == 0) alive_.push_back(0);
    inserted_at_.push_back(0);
    id_buckets_.resize(id_buckets_.size() + indexed_.fields().size());
  }
  alive_[id >> 6] |= std::uint64_t{1} << (id & 63);

  const std::uint32_t gi = group_for_arity(arity);
  ColumnGroup& g = groups_[gi];
  const auto row = static_cast<std::uint32_t>(g.rows());
  for (std::size_t f = 0; f < arity; ++f) {
    const Cell cell = cell_of_field(f);
    Column& c = g.cols[f];
    c.data.push_back(cell.payload);
    c.tags.push_back(cell.tag);
  }
  g.row_ids.push_back(id);
  g.stamps.push_back(version_);
  g.live.push_set();
  locs_[id] = Loc{gi, row};

  // Appending keeps every bucket sorted by insertion stamp.
  inserted_at_[id] = version_;
  const std::vector<std::size_t>& indexed = indexed_.fields();
  std::uint32_t* slots = id_buckets_.data() + std::size_t{id} * indexed.size();
  for (std::size_t j = 0; j < indexed.size() && indexed[j] < arity; ++j) {
    const Column& c = g.cols[indexed[j]];
    ++t_work.index_lookups;
    const auto [it, fresh] = field_index_.try_emplace(
        FieldKey{indexed[j], Cell{c.tags[row], c.data[row]}});
    if (fresh) {
      it->second = new_bucket_slot();
    } else if (buckets_[it->second].empty()) {
      --empty_buckets_;
    }
    buckets_[it->second].push_back(id);
    slots[j] = it->second;
  }
  ++live_count_;
  ++version_;
  return id;
}

Store::Id Store::insert(std::span<const Value> fields) {
  maybe_compact();
  return insert_row(fields.size(),
                    [&](std::size_t f) { return intern(fields[f]); });
}

void Store::replace(const Match& match) {
  for (const Cell c : match.outputs) {
    if (c.tag == kStrTag) ++symbol_holders_[static_cast<std::size_t>(c.payload)];
  }
  for (const Id id : match.ids) remove(id);
  match.for_each_output([&](std::span<const Cell> tuple) {
    maybe_compact();
    insert_row(tuple.size(), [&](std::size_t f) {
      const Cell c = tuple[f];
      return c.tag == kTextTag
                 ? intern(match.texts[static_cast<std::size_t>(c.payload)])
                 : c;
    });
  });
}

void Store::remove(Id id) {
  if (!alive(id)) throw EngineError("remove of dead element id");
  const Loc loc = locs_[id];
  ColumnGroup& g = groups_[loc.group];
  const std::vector<std::size_t>& indexed = indexed_.fields();
  const std::uint32_t* slots =
      id_buckets_.data() + std::size_t{id} * indexed.size();
  for (std::size_t j = 0; j < indexed.size() && indexed[j] < g.arity; ++j) {
    Bucket& bucket = buckets_[slots[j]];
    unindex(bucket, id);
    // The emptied bucket keeps its slot (and its handles) until compact().
    if (bucket.empty()) ++empty_buckets_;
  }
  // A symbol no row holds any more keeps its id until compact().
  if (!symbols_.empty()) {
    for (const Column& c : g.cols) {
      release(Cell{c.tags[loc.row], c.data[loc.row]});
    }
  }
  alive_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
  g.live.reset(loc.row);
  ++dead_rows_;
  free_list_.push_back(id);
  --live_count_;
  ++version_;
  // The dead row lingers (masked by the liveness bitmap) until compact().
}

void Store::append(const Store& other) {
  std::vector<Id> ids;
  ids.reserve(other.size());
  for (Id id = 0; id < other.slots(); ++id) {
    if (other.alive(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [&other](Id a, Id b) {
    return other.inserted_at_[a] < other.inserted_at_[b];
  });
  // Each of `other`'s symbols is interned here once, on first use.
  constexpr std::int64_t kUnseen = -1;
  std::vector<std::int64_t> symbol_here(other.symbols_.size(), kUnseen);
  for (const Id id : ids) {
    maybe_compact();
    const Loc loc = other.locs_[id];
    const ColumnGroup& g = other.groups_[loc.group];
    insert_row(g.arity, [&](std::size_t f) {
      Cell cell{g.cols[f].tags[loc.row], g.cols[f].data[loc.row]};
      if (cell.tag != kStrTag) return cell;
      std::int64_t& here = symbol_here[static_cast<std::size_t>(cell.payload)];
      if (here == kUnseen) {
        here = intern(other.symbols_[static_cast<std::size_t>(cell.payload)])
                   .payload;
      } else {
        ++symbol_holders_[static_cast<std::size_t>(here)];
      }
      cell.payload = here;
      return cell;
    });
  }
}

Store::Bucket::const_iterator Store::lower_bound(const Bucket& bucket,
                                                std::uint64_t stamp) const {
  return std::lower_bound(
      bucket.begin(), bucket.end(), stamp,
      [this](Id other, std::uint64_t s) { return inserted_at_[other] < s; });
}

void Store::unindex(Bucket& bucket, Id id) const {
  // Ordered erase from a (field, value) bucket: the survivors keep their
  // insertion order, so the bucket stays exactly what a fresh scan of the
  // live occupants would list. These buckets are the narrow ones; the
  // arity bucket is a group's live rows and needs no erase.
  const auto at = lower_bound(bucket, inserted_at_[id]);
  t_work.ids_shifted += static_cast<std::uint64_t>(bucket.end() - at - 1);
  bucket.erase(at);
}

std::size_t Store::first_stamped(Candidates bucket,
                                 std::uint64_t stamp) const {
  if (bucket.ids != nullptr) {
    return static_cast<std::size_t>(lower_bound(*bucket.ids, stamp) -
                                    bucket.ids->begin());
  }
  if (bucket.group == nullptr) return 0;
  return bucket.group->live.rank(bucket.group->first_row_stamped(stamp));
}

std::size_t Store::scan_position(const Bucket& narrow, Id id) const {
  const auto p = lower_bound(narrow, inserted_at_[id]);
  return p == narrow.end() ? 0 : static_cast<std::size_t>(p - narrow.begin());
}

Element Store::element(Id id) const {
  const Loc loc = locs_[id];
  const ColumnGroup& g = groups_[loc.group];
  std::vector<Value> fields;
  fields.reserve(g.arity);
  for (const Column& c : g.cols) {
    fields.push_back(value(Cell{c.tags[loc.row], c.data[loc.row]}));
  }
  return Element(std::move(fields));
}

bool Store::bind(std::span<const FieldOp> ops, Id id, Frame& frame,
                 std::span<const Cell> literals) const {
  const RowRef r = row(id);
  const ColumnGroup& g = *r.group;
  if (g.arity != ops.size()) return false;
  for (std::size_t f = 0; f < g.arity; ++f) {
    const FieldOp& op = ops[f];
    switch (op.kind) {
      case FieldOp::Kind::Lit:
        if (!g.cols[f].holds(r.row, literals[op.index])) return false;
        break;
      case FieldOp::Kind::Eq:
        if (!field_equals(r, f, *frame.slot(op.index))) return false;
        break;
      case FieldOp::Kind::Bind: {
        const Column& c = g.cols[f];
        const std::uint8_t tag = c.tags[r.row];
        const std::int64_t payload = c.data[r.row];
        if (tag == kIntTag) {
          frame.bind_int(op.index, payload);
        } else if (tag == kStrTag) {
          frame.bind_ref(op.index, symbols_[static_cast<std::size_t>(payload)]);
        } else if (tag == kRealTag) {
          frame.bind_real(op.index, std::bit_cast<double>(payload));
        } else if (tag == kBoolTag) {
          frame.bind_bool(op.index, payload != 0);
        } else {
          frame.bind_nil(op.index);
        }
        break;
      }
    }
  }
  return true;
}

const Store::Bucket* Store::field_bucket(std::size_t field,
                                         const Value& value) const {
  const Bucket* bucket = field_bucket(field_handle(field, value));
  return bucket == nullptr || bucket->empty() ? nullptr : bucket;
}

Store::BucketHandle Store::field_handle(std::size_t field,
                                        const Value& value) const {
  const std::optional<Cell> cell = cell_of(value);
  return field_handle(field, cell ? *cell : Cell{kTextTag, 0});
}

Store::BucketHandle Store::field_handle(std::size_t field, Cell key) const {
  if (!indexed_.contains(field)) {
    throw EngineError(std::string("field bucket query on unindexed field ")
                          .append(std::to_string(field)));
  }
  if (key.tag == kTextTag) return BucketHandle{};
  ++t_work.index_lookups;
  const auto it = field_index_.find(FieldKey{field, key});
  if (it == field_index_.end()) return BucketHandle{};
  return BucketHandle{it->second, bucket_generations_[it->second]};
}

std::size_t Store::count_field(std::size_t field, const Value& value) const {
  if (indexed_.contains(field)) {
    // A NaN key's bucket holds the NaN fields, none of which equals it.
    if (value.is_real() && std::isnan(value.as_real())) return 0;
    const Bucket* bucket = field_bucket(field, value);
    return bucket == nullptr ? 0 : bucket->size();
  }
  const std::optional<Cell> cell = cell_of(value);
  if (!cell) return 0;
  std::size_t n = 0;
  for (const ColumnGroup& g : groups_) {
    if (g.arity <= field) continue;
    const Column& c = g.cols[field];
    for (std::size_t row = 0; row < g.rows(); ++row) {
      if (g.row_live(row) && c.holds(row, *cell)) ++n;
    }
  }
  return n;
}

std::uint32_t Store::new_bucket_slot() {
  if (!free_buckets_.empty()) {
    const std::uint32_t slot = free_buckets_.back();
    free_buckets_.pop_back();
    return slot;
  }
  buckets_.emplace_back();
  bucket_generations_.push_back(0);
  return static_cast<std::uint32_t>(buckets_.size() - 1);
}

void Store::compact() {
  for (std::uint32_t gi = 0; gi < groups_.size(); ++gi) {
    ColumnGroup& g = groups_[gi];
    if (g.live_rows() == g.rows()) continue;
    ColumnGroup packed;
    packed.arity = g.arity;
    packed.cols.resize(g.arity);
    packed.row_ids.reserve(g.live_rows());
    packed.stamps.reserve(g.live_rows());
    for (Column& c : packed.cols) {
      c.data.reserve(g.live_rows());
      c.tags.reserve(g.live_rows());
    }
    for (std::size_t row = 0; row < g.rows(); ++row) {
      if (!g.row_live(row)) continue;
      for (std::size_t f = 0; f < g.arity; ++f) {
        const Column& src = g.cols[f];
        Column& dst = packed.cols[f];
        dst.data.push_back(src.data[row]);
        dst.tags.push_back(src.tags[row]);
      }
      const Id id = g.row_ids[row];
      locs_[id] = Loc{gi, static_cast<std::uint32_t>(packed.row_ids.size())};
      packed.row_ids.push_back(id);
      packed.stamps.push_back(g.stamps[row]);
    }
    packed.live.assign_set(packed.row_ids.size());
    t_work.rows_copied += packed.row_ids.size();
    g = std::move(packed);
    ++column_compactions_;
    g_column_compactions.fetch_add(1, std::memory_order_relaxed);
  }
  dead_rows_ = 0;
  // Free the emptied buckets' slots; the new generation makes every handle
  // to them stale, so a reused slot is never read as its old key's bucket.
  // Every bucket of an unheld symbol is among them, so once this pass is
  // done no key names a symbol freed below.
  if (empty_buckets_ != 0) {
    for (auto it = field_index_.begin(); it != field_index_.end();) {
      if (!buckets_[it->second].empty()) {
        ++it;
        continue;
      }
      ++bucket_generations_[it->second];
      free_buckets_.push_back(it->second);
      it = field_index_.erase(it);
    }
    empty_buckets_ = 0;
  }
  free_unheld_symbols();
}

void Store::free_unheld_symbols() {
  // An id listed twice, or held again since, is skipped.
  for (const std::uint32_t id : unheld_symbols_) {
    if (symbol_holders_[id] != 0 || !symbols_[id].is_str()) continue;
    unindex_symbol(id);
    symbols_[id] = Value();  // a freed id never reads as its old string
    free_symbols_.push_back(id);
  }
  unheld_symbols_.clear();
}

Multiset Store::to_multiset() const {
  Multiset m;
  for (Id id = 0; id < slots(); ++id) {
    if (alive(id)) m.add(element(id));
  }
  return m;
}

Store::Id Store::nth_live(std::size_t k) const noexcept {
  std::size_t w = 0;
  for (;; ++w) {
    const std::size_t live = count_bits(alive_[w]);
    if (k < live) break;
    k -= live;
  }
  return static_cast<Id>(w * 64 + select_in_word(alive_[w], k));
}

std::vector<Element> Match::produced(const Store& store) const {
  std::vector<Element> out;
  for_each_output([&](std::span<const Store::Cell> tuple) {
    std::vector<Value> fields;
    fields.reserve(tuple.size());
    for (const Store::Cell c : tuple) {
      fields.push_back(c.tag == Store::kTextTag
                           ? texts[static_cast<std::size_t>(c.payload)]
                           : store.value(c));
    }
    out.emplace_back(std::move(fields));
  });
  return out;
}

std::uint64_t column_compactions_total() noexcept {
  return g_column_compactions.load(std::memory_order_relaxed);
}

}  // namespace gammaflow::gamma
