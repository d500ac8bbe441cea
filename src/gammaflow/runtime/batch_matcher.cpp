#include "gammaflow/runtime/batch_matcher.hpp"

#include <algorithm>

namespace gammaflow::runtime {
namespace {

using gamma::CompiledReaction;
using gamma::Store;

constexpr std::uint8_t kIntTag = static_cast<std::uint8_t>(ValueKind::Int);

/// Equality between two fields of the same row (the repeated binder
/// constraint): the same tag and equal payloads, as Value == has it.
bool fields_equal(const Store::ColumnGroup& g, std::uint32_t row,
                  std::size_t fa, std::size_t fb) {
  const Store::Column& a = g.cols[fa];
  return g.cols[fb].holds(row, Store::Cell{a.tags[row], a.data[row]});
}

}  // namespace

bool BatchMatcher::begin(const gamma::Store& store,
                         const gamma::Reaction& reaction,
                         const Scan& scan, std::uint16_t join_field,
                         std::span<const Value* const> outer,
                         std::span<const Store::Cell> literals) {
  using Kind = CompiledReaction::BatchPlan::FieldCheck::Kind;
  const CompiledReaction::BatchPlan* plan = reaction.compiled().batch_plan();
  if (plan == nullptr) return false;

  // Field checks minus the one the probed (field, value) bucket implies.
  // A literal is the reaction's cell for it, and an outer binding (any
  // kind) is encoded as a store cell once here, so every lane compares
  // payloads.
  const std::uint16_t implied =
      join_field != CompiledReaction::BatchPlan::kNoField ? join_field
                                                          : plan->key_field;
  checks_.clear();
  for (const auto& check : plan->checks) {
    if (check.field == implied) continue;
    ActiveCheck active{&check, std::nullopt};
    switch (check.kind) {
      case Kind::LitInt:
        active.cell = Store::Cell{kIntTag, check.imm};
        break;
      case Kind::Lit:
        active.cell = literals[static_cast<std::size_t>(check.imm)];
        break;
      case Kind::EqSlot:
        active.cell = store.cell_of(*outer[check.slot]);
        break;
      case Kind::EqField:
        break;
    }
    checks_.push_back(active);
  }
  any_condition_ = std::any_of(plan->conditions.begin(),
                               plan->conditions.end(),
                               [](const auto& cond) { return cond.has_value(); });
  if (!any_condition_ && checks_.empty()) return false;

  store_ = &store;
  plan_ = plan;
  scan_ = &scan;

  // Guard broadcast scalars must be Int to enter the lane model.
  slots_.assign(outer.size(), expr::BatchVm::SlotInput{});
  gather_.clear();
  if (any_condition_) {
    for (std::size_t s = 0; s < outer.size(); ++s) {
      if (plan->cond_slot_used[s] == 0 || plan->slot_is_vector[s] != 0) {
        continue;
      }
      const std::int64_t* vi = outer[s]->if_int();
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

bool BatchMatcher::chunk(ScanCursor& at, std::size_t width) {
  rows_.resize(width);
  shape_ok_.assign(width, 0);

  // The chunk's entries: an arity bucket's are its group's rows already;
  // an id list's go through the store's slot table. The cursor is walked as
  // a local so its state stays in registers.
  ScanCursor walk = at;
  if (const Store::ColumnGroup* group = scan_->group) {
    for (std::size_t j = 0; j < width; ++j) {
      rows_[j] = Store::RowRef{group, static_cast<std::uint32_t>(walk.next())};
    }
  } else {
    for (std::size_t j = 0; j < width; ++j) {
      rows_[j] = store_->row(scan_->ids[walk.next()]);
    }
  }
  at = walk;

  // Pass 1 — structural mask: arity and the plan's field checks, straight
  // off the columns. A cleared lane here is one the scalar probe would
  // reject structurally, never one it could fire on.
  for (std::size_t j = 0; j < width; ++j) {
    const Store::RowRef rr = rows_[j];
    const Store::ColumnGroup& g = *rr.group;
    if (g.arity != plan_->arity) continue;
    bool ok = true;
    for (std::size_t ci = 0; ci < checks_.size() && ok; ++ci) {
      const ActiveCheck& active = checks_[ci];
      const auto& check = *active.check;
      if (check.kind == CompiledReaction::BatchPlan::FieldCheck::Kind::EqField) {
        ok = fields_equal(g, rr.row, check.field, check.other);
      } else {
        ok = active.cell && g.cols[check.field].holds(rr.row, *active.cell);
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
