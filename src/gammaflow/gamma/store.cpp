#include "gammaflow/gamma/store.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace gammaflow::gamma {

namespace {
std::atomic<std::uint64_t> g_column_compactions{0};

constexpr std::uint8_t kIntTag = static_cast<std::uint8_t>(ValueKind::Int);
constexpr std::uint8_t kNilTag = static_cast<std::uint8_t>(ValueKind::Nil);
}  // namespace

Value Store::ColumnGroup::field_value(std::size_t row, std::size_t f) const {
  const Column& c = cols[f];
  const std::uint8_t tag = c.tags[row];
  if (tag == kIntTag) return Value(c.data[row]);
  if (tag == kNilTag) return Value();
  return c.spill[static_cast<std::size_t>(c.data[row])];
}

std::uint32_t Store::group_for_arity(std::size_t arity) {
  const auto it = group_of_arity_.find(arity);
  if (it != group_of_arity_.end()) return it->second;
  const auto gi = static_cast<std::uint32_t>(groups_.size());
  group_of_arity_.emplace(arity, gi);
  groups_.emplace_back();
  groups_.back().arity = arity;
  groups_.back().cols.resize(arity);
  return gi;
}

Store::Id Store::insert(Element e) {
  // Self-triggered collection: without it, append-only rows would grow with
  // TOTAL firings, not live elements, and batch sweeps would scan the dead.
  // Never runs mid-search (searches don't insert), so gathered row
  // coordinates stay valid within any one find().
  if (dead_rows_ >= kGarbageCompactThreshold ||
      dead_rows_ > 4 * live_count_ + 256) {
    compact();
  }

  Id id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    alive_[id] = true;
  } else {
    id = static_cast<Id>(locs_.size());
    locs_.push_back(Loc{});
    alive_.push_back(true);
    inserted_at_.push_back(0);
  }

  const std::size_t arity = e.arity();
  const std::uint32_t gi = group_for_arity(arity);
  ColumnGroup& g = groups_[gi];
  const auto row = static_cast<std::uint32_t>(g.rows);
  for (std::size_t f = 0; f < arity; ++f) {
    Column& c = g.cols[f];
    const Value& v = e.field(f);
    if (const std::int64_t* i = v.if_int()) {
      c.data.push_back(*i);
    } else if (v.is_nil()) {
      c.data.push_back(0);
    } else {
      c.data.push_back(static_cast<std::int64_t>(c.spill.size()));
      c.spill.push_back(v);
    }
    c.tags.push_back(static_cast<std::uint8_t>(v.kind()));
  }
  g.row_ids.push_back(id);
  if ((g.rows & 63) == 0) g.live_bits.push_back(0);
  g.live_bits[g.rows >> 6] |= std::uint64_t{1} << (g.rows & 63);
  ++g.rows;
  ++g.live_rows;
  locs_[id] = Loc{gi, row};

  // Appending keeps every bucket sorted by insertion stamp.
  inserted_at_[id] = version_;
  arity_index_[arity].push_back(id);
  for (std::size_t f = 0; f < arity; ++f) {
    field_index_[FieldKey{f, e.field(f)}].push_back(id);
  }
  ++live_count_;
  ++version_;
  return id;
}

void Store::remove(Id id) {
  if (!alive(id)) throw EngineError("remove of dead element id");
  const Loc loc = locs_[id];
  ColumnGroup& g = groups_[loc.group];
  unindex(arity_index_.find(g.arity)->second, id);
  for (std::size_t f = 0; f < g.arity; ++f) {
    const auto it = field_index_.find(FieldKey{f, g.field_value(loc.row, f)});
    unindex(it->second, id);
    if (it->second.empty()) field_index_.erase(it);
  }
  alive_[id] = false;
  g.live_bits[loc.row >> 6] &= ~(std::uint64_t{1} << (loc.row & 63));
  --g.live_rows;
  ++dead_rows_;
  free_list_.push_back(id);
  --live_count_;
  ++version_;
  // The dead row lingers (masked by the liveness bitmap) until compact().
}

void Store::unindex(Bucket& bucket, Id id) const {
  // Ordered erase: the survivors keep their insertion order, so the bucket
  // stays exactly what a fresh scan of the live occupants would list.
  const std::uint64_t stamp = inserted_at_[id];
  const auto it = std::lower_bound(
      bucket.begin(), bucket.end(), stamp,
      [this](Id other, std::uint64_t s) { return inserted_at_[other] < s; });
  bucket.erase(it);
}

Element Store::element(Id id) const {
  const Loc loc = locs_[id];
  const ColumnGroup& g = groups_[loc.group];
  std::vector<Value> fields;
  fields.reserve(g.arity);
  for (std::size_t f = 0; f < g.arity; ++f) {
    fields.push_back(g.field_value(loc.row, f));
  }
  return Element(std::move(fields));
}

bool Store::match_pattern(const Pattern& p, Id id, expr::Env& env) const {
  const Loc loc = locs_[id];
  const ColumnGroup& g = groups_[loc.group];
  if (g.arity != p.arity()) return false;
  Value scratch;
  for (std::size_t f = 0; f < g.arity; ++f) {
    const Column& c = g.cols[f];
    const std::uint8_t tag = c.tags[loc.row];
    const Value* v;
    if (tag == kIntTag) {
      scratch = Value(c.data[loc.row]);
      v = &scratch;
    } else if (tag == kNilTag) {
      scratch = Value();
      v = &scratch;
    } else {
      v = &c.spill[static_cast<std::size_t>(c.data[loc.row])];
    }
    if (!p.fields()[f].match(*v, env)) return false;
  }
  return true;
}

const Store::Bucket* Store::bucket(const Pattern& p) const {
  if (auto key = p.key_constraint()) {
    auto it = field_index_.find(FieldKey{key->first, key->second});
    return it == field_index_.end() ? nullptr : &it->second;
  }
  auto it = arity_index_.find(p.arity());
  return it == arity_index_.end() ? nullptr : &it->second;
}

void Store::compact() {
  for (std::uint32_t gi = 0; gi < groups_.size(); ++gi) {
    ColumnGroup& g = groups_[gi];
    if (g.live_rows == g.rows) continue;
    ColumnGroup packed;
    packed.arity = g.arity;
    packed.cols.resize(g.arity);
    packed.row_ids.reserve(g.live_rows);
    for (Column& c : packed.cols) {
      c.data.reserve(g.live_rows);
      c.tags.reserve(g.live_rows);
    }
    for (std::size_t row = 0; row < g.rows; ++row) {
      if (!g.row_live(row)) continue;
      for (std::size_t f = 0; f < g.arity; ++f) {
        Column& src = g.cols[f];
        Column& dst = packed.cols[f];
        const std::uint8_t tag = src.tags[row];
        if (tag == kIntTag || tag == kNilTag) {
          dst.data.push_back(src.data[row]);
        } else {
          dst.data.push_back(static_cast<std::int64_t>(dst.spill.size()));
          dst.spill.push_back(
              std::move(src.spill[static_cast<std::size_t>(src.data[row])]));
        }
        dst.tags.push_back(tag);
      }
      if ((packed.rows & 63) == 0) packed.live_bits.push_back(0);
      packed.live_bits[packed.rows >> 6] |= std::uint64_t{1}
                                            << (packed.rows & 63);
      const Id id = g.row_ids[row];
      locs_[id] = Loc{gi, static_cast<std::uint32_t>(packed.rows)};
      packed.row_ids.push_back(id);
      ++packed.rows;
      ++packed.live_rows;
    }
    g = std::move(packed);
    ++column_compactions_;
    g_column_compactions.fetch_add(1, std::memory_order_relaxed);
  }
  dead_rows_ = 0;
}

Multiset Store::to_multiset() const {
  Multiset m;
  for (std::size_t id = 0; id < locs_.size(); ++id) {
    if (alive_[id]) m.add(element(static_cast<Id>(id)));
  }
  return m;
}

std::uint64_t column_compactions_total() noexcept {
  return g_column_compactions.load(std::memory_order_relaxed);
}

}  // namespace gammaflow::gamma
