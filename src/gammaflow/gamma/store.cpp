#include "gammaflow/gamma/store.hpp"

#include <algorithm>
#include <atomic>
#include <string>
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
    if (const auto key = p.key_constraint()) add(key->first);
  }
  for (const auto& joins : reaction.compiled().joins()) {
    for (const CompiledReaction::JoinField& j : joins) add(j.field);
  }
}

bool FieldSet::contains(std::size_t field) const noexcept {
  return std::binary_search(fields_.begin(), fields_.end(), field);
}

bool Store::ColumnGroup::field_equals(std::size_t row, std::size_t f,
                                      const Value& v) const noexcept {
  const Column& c = cols[f];
  const std::uint8_t tag = c.tags[row];
  if (const std::int64_t* vi = v.if_int()) {
    return tag == kIntTag && c.data[row] == *vi;
  }
  if (tag == kIntTag) return false;
  if (tag == kNilTag) return v.is_nil();
  if (v.is_nil()) return false;
  return c.spill[static_cast<std::size_t>(c.data[row])] == v;
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

Store::Id Store::insert(std::span<const Value> fields) {
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
  } else {
    id = static_cast<Id>(locs_.size());
    locs_.push_back(Loc{});
    if ((id & 63) == 0) alive_.push_back(0);
    inserted_at_.push_back(0);
  }
  alive_[id >> 6] |= std::uint64_t{1} << (id & 63);

  const std::size_t arity = fields.size();
  const std::uint32_t gi = group_for_arity(arity);
  ColumnGroup& g = groups_[gi];
  const auto row = static_cast<std::uint32_t>(g.rows());
  for (std::size_t f = 0; f < arity; ++f) {
    Column& c = g.cols[f];
    const Value& v = fields[f];
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
  g.stamps.push_back(version_);
  g.live.push_set();
  locs_[id] = Loc{gi, row};

  // Appending keeps every bucket sorted by insertion stamp.
  inserted_at_[id] = version_;
  for (const std::size_t f : indexed_.fields()) {
    if (f >= arity) break;
    const auto [it, fresh] = field_index_.try_emplace(FieldKey{f, fields[f]});
    if (fresh) {
      it->second = new_bucket_slot();
    } else if (buckets_[it->second].empty()) {
      --empty_buckets_;
    }
    buckets_[it->second].push_back(id);
  }
  ++live_count_;
  ++version_;
  return id;
}

void Store::remove(Id id) {
  if (!alive(id)) throw EngineError("remove of dead element id");
  const Loc loc = locs_[id];
  ColumnGroup& g = groups_[loc.group];
  for (const std::size_t f : indexed_.fields()) {
    if (f >= g.arity) break;
    const auto it = field_index_.find(FieldKey{f, g.field_value(loc.row, f)});
    Bucket& bucket = buckets_[it->second];
    unindex(bucket, id);
    // The emptied bucket keeps its slot (and its handles) until compact().
    if (bucket.empty()) ++empty_buckets_;
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
  std::vector<Value> fields;
  for (const Id id : ids) {
    const Loc loc = other.locs_[id];
    const ColumnGroup& g = other.groups_[loc.group];
    fields.clear();
    for (std::size_t f = 0; f < g.arity; ++f) {
      fields.push_back(g.field_value(loc.row, f));
    }
    insert(fields);
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
  bucket.erase(lower_bound(bucket, inserted_at_[id]));
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
  for (std::size_t f = 0; f < g.arity; ++f) {
    fields.push_back(g.field_value(loc.row, f));
  }
  return Element(std::move(fields));
}

bool Store::bind(std::span<const FieldOp> ops, Id id, Frame& frame) const {
  const Loc loc = locs_[id];
  const ColumnGroup& g = groups_[loc.group];
  if (g.arity != ops.size()) return false;
  for (std::size_t f = 0; f < g.arity; ++f) {
    const FieldOp& op = ops[f];
    switch (op.kind) {
      case FieldOp::Kind::Lit:
        if (!g.field_equals(loc.row, f, op.value)) return false;
        break;
      case FieldOp::Kind::Eq:
        if (!g.field_equals(loc.row, f, *frame.slot(op.slot))) return false;
        break;
      case FieldOp::Kind::Bind: {
        const Column& c = g.cols[f];
        const std::uint8_t tag = c.tags[loc.row];
        if (tag == kIntTag) {
          frame.bind_int(op.slot, c.data[loc.row]);
        } else if (tag == kNilTag) {
          frame.bind_nil(op.slot);
        } else {
          frame.bind_ref(op.slot,
                         c.spill[static_cast<std::size_t>(c.data[loc.row])]);
        }
        break;
      }
    }
  }
  return true;
}

Store::Candidates Store::bucket(const Pattern& p) const {
  if (auto key = p.key_constraint()) {
    return Candidates{field_bucket(key->first, key->second), nullptr};
  }
  return Candidates{nullptr, group_of(p.arity())};
}

const Store::Bucket* Store::field_bucket(std::size_t field,
                                         const Value& value) const {
  const Bucket* bucket = field_bucket(field_handle(field, value));
  return bucket == nullptr || bucket->empty() ? nullptr : bucket;
}

Store::BucketHandle Store::field_handle(std::size_t field,
                                        const Value& value) const {
  if (!indexed_.contains(field)) {
    throw EngineError(std::string("field bucket query on unindexed field ")
                          .append(std::to_string(field)));
  }
  const auto it = field_index_.find(FieldKey{field, value});
  if (it == field_index_.end()) return BucketHandle{};
  return BucketHandle{it->second, bucket_generations_[it->second]};
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
      const Id id = g.row_ids[row];
      locs_[id] = Loc{gi, static_cast<std::uint32_t>(packed.row_ids.size())};
      packed.row_ids.push_back(id);
      packed.stamps.push_back(g.stamps[row]);
    }
    packed.live.assign_set(packed.row_ids.size());
    g = std::move(packed);
    ++column_compactions_;
    g_column_compactions.fetch_add(1, std::memory_order_relaxed);
  }
  dead_rows_ = 0;
  if (empty_buckets_ == 0) return;
  // Free the emptied buckets' slots; the new generation makes every handle
  // to them stale, so a reused slot is never read as its old key's bucket.
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

std::vector<Element> Match::produced() const {
  std::vector<Element> out;
  for_each_output([&](std::span<const Value> tuple) {
    out.emplace_back(std::vector<Value>(tuple.begin(), tuple.end()));
  });
  return out;
}

std::uint64_t column_compactions_total() noexcept {
  return g_column_compactions.load(std::memory_order_relaxed);
}

}  // namespace gammaflow::gamma
