#include "gammaflow/runtime/batch_matcher.hpp"

#include <algorithm>

namespace gammaflow::runtime {
namespace {

using gamma::CompiledReaction;
using gamma::Store;

constexpr std::uint8_t kIntTag = static_cast<std::uint8_t>(ValueKind::Int);
constexpr std::uint8_t kNilTag = static_cast<std::uint8_t>(ValueKind::Nil);

/// Structural equality between a column field and a Value, without
/// materializing the field (spill payloads compare by reference).
bool field_equals_value(const Store::ColumnGroup& g, std::uint32_t row,
                        std::size_t f, const Value& v) {
  const Store::Column& c = g.cols[f];
  const std::uint8_t tag = c.tags[row];
  if (const std::int64_t* vi = v.if_int()) {
    return tag == kIntTag && c.data[row] == *vi;
  }
  if (tag == kIntTag) return false;
  if (tag == kNilTag) return v.kind() == ValueKind::Nil;
  if (v.kind() == ValueKind::Nil) return false;
  return c.spill[static_cast<std::size_t>(c.data[row])] == v;
}

/// Structural equality between two fields of the same row (the repeated
/// binder constraint). Value equality is variant-structural, so differing
/// tags can never be equal.
bool fields_equal(const Store::ColumnGroup& g, std::uint32_t row,
                  std::size_t fa, std::size_t fb) {
  const Store::Column& a = g.cols[fa];
  const Store::Column& b = g.cols[fb];
  const std::uint8_t ta = a.tags[row];
  if (ta != b.tags[row]) return false;
  if (ta == kIntTag) return a.data[row] == b.data[row];
  if (ta == kNilTag) return true;
  return a.spill[static_cast<std::size_t>(a.data[row])] ==
         b.spill[static_cast<std::size_t>(b.data[row])];
}

}  // namespace

bool BatchMatcher::begin(const gamma::Store& store,
                         const gamma::Reaction& reaction,
                         const gamma::Store::Bucket& bucket,
                         const expr::Env& outer_env) {
  const CompiledReaction& compiled = reaction.compiled();
  const CompiledReaction::BatchPlan* plan = compiled.batch_plan();
  if (plan == nullptr) return false;
  any_condition_ = std::any_of(plan->conditions.begin(),
                               plan->conditions.end(),
                               [](const auto& cond) { return cond.has_value(); });
  if (!any_condition_ && plan->checks.empty()) return false;

  store_ = &store;
  plan_ = plan;
  bucket_ = &bucket;
  const std::vector<std::string>& slots = compiled.slots();

  // Outer bindings: EqSlot comparands (any kind — compared per lane) and
  // guard broadcast scalars (must be Int to enter the lane model).
  eq_values_.assign(plan->checks.size(), nullptr);
  for (std::size_t i = 0; i < plan->checks.size(); ++i) {
    const auto& check = plan->checks[i];
    if (check.kind != CompiledReaction::BatchPlan::FieldCheck::Kind::EqSlot) {
      continue;
    }
    eq_values_[i] = outer_env.find(slots[check.slot]);
    if (eq_values_[i] == nullptr) return false;  // malformed outer env
  }

  slots_.assign(slots.size(), expr::BatchVm::SlotInput{});
  gather_.clear();
  if (any_condition_) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (plan->cond_slot_used[s] == 0 || plan->slot_is_vector[s] != 0) {
        continue;
      }
      const Value* v = outer_env.find(slots[s]);
      const std::int64_t* vi = v != nullptr ? v->if_int() : nullptr;
      if (vi == nullptr) return false;  // non-Int broadcast: stay scalar
      slots_[s].scalar = *vi;
    }
    for (const auto& vs : plan->vector_slots) {
      if (plan->cond_slot_used[vs.slot] != 0) gather_.push_back(vs);
    }
    if (columns_.size() < gather_.size()) columns_.resize(gather_.size());
  }
  return true;
}

bool BatchMatcher::chunk(std::size_t start, std::size_t t, std::size_t width) {
  const Store::Bucket& bucket = *bucket_;
  const std::size_t n = bucket.size();

  rows_.resize(width);
  shape_ok_.assign(width, 0);

  // Pass 1 — structural mask: arity and the plan's field checks, straight
  // off the columns. A cleared lane here is one the scalar probe would
  // reject structurally, never one it could fire on.
  for (std::size_t j = 0; j < width; ++j) {
    const Store::RowRef rr = store_->row(bucket[(start + t + j) % n]);
    rows_[j] = rr;
    const Store::ColumnGroup& g = *rr.group;
    if (g.arity != plan_->arity) continue;
    bool ok = true;
    for (std::size_t ci = 0; ci < plan_->checks.size() && ok; ++ci) {
      const auto& check = plan_->checks[ci];
      using Kind = CompiledReaction::BatchPlan::FieldCheck::Kind;
      switch (check.kind) {
        case Kind::LitInt:
          ok = g.cols[check.field].tags[rr.row] == kIntTag &&
               g.cols[check.field].data[rr.row] == check.imm;
          break;
        case Kind::Lit:
          ok = field_equals_value(g, rr.row, check.field, check.value);
          break;
        case Kind::EqField:
          ok = fields_equal(g, rr.row, check.field, check.other);
          break;
        case Kind::EqSlot:
          ok = field_equals_value(g, rr.row, check.field, *eq_values_[ci]);
          break;
      }
    }
    if (ok) shape_ok_[j] = 1;
  }

  if (!any_condition_) {
    fire_ = shape_ok_;
    return true;
  }

  // Pass 2 — gather guard inputs. Non-Int fields force the lane on
  // (unknown): the scalar probe re-checks it, so a wrong bitmap value there
  // could only ever be a harmless false positive — we make it exactly that.
  // Masked lanes get the same filler so a rejected row can never fault a
  // chunk.
  unknown_.assign(width, 0);
  for (std::size_t gi = 0; gi < gather_.size(); ++gi) {
    const auto vs = gather_[gi];
    std::vector<std::int64_t>& col = columns_[gi];
    col.resize(width);
    for (std::size_t j = 0; j < width; ++j) {
      if (shape_ok_[j] == 0) {
        col[j] = 1;
        continue;
      }
      const Store::RowRef rr = rows_[j];
      const Store::Column& c = rr.group->cols[vs.field];
      if (c.tags[rr.row] == kIntTag) {
        col[j] = c.data[rr.row];
      } else {
        col[j] = 1;
        unknown_[j] = 1;
      }
    }
    slots_[vs.slot].column = col.data();
  }

  // Pass 3 — branch bitmaps, preserving first-firing-branch order: a lane
  // fires iff some branch's guard is its first truthy one (or an
  // unconditional/else branch catches it while still pending).
  fire_.assign(width, 0);
  pending_ = shape_ok_;
  for (std::size_t b = 0; b < plan_->conditions.size(); ++b) {
    const auto& cond = plan_->conditions[b];
    if (!cond) {
      for (std::size_t j = 0; j < width; ++j) {
        fire_[j] = static_cast<std::uint8_t>(fire_[j] | pending_[j]);
      }
      break;
    }
    if (!vm_.run(*cond, slots_, width, cond_)) return false;  // fault
    for (std::size_t j = 0; j < width; ++j) {
      fire_[j] = static_cast<std::uint8_t>(fire_[j] |
                                           (pending_[j] & cond_[j]));
      pending_[j] = static_cast<std::uint8_t>(pending_[j] & (cond_[j] ^ 1u));
    }
  }
  for (std::size_t j = 0; j < width; ++j) {
    fire_[j] = static_cast<std::uint8_t>(fire_[j] | unknown_[j]);
  }
  return true;
}

}  // namespace gammaflow::runtime
