// Batch innermost-bucket sweeper: the column half of the match pipeline.
// For the innermost replace-list pattern the candidate bucket is evaluated
// as COLUMN BATCHES instead of per-element probes: a structural
// lane mask (arity ∧ literal/equality field checks straight off the store's
// columns), a gather of the condition's binder fields into dense
// int64 lanes, and one BatchVm run per branch guard producing a fire bitmap.
//
// The bitmap is a FILTER, not a verdict: every set lane still goes through
// the ordinary scalar probe (pattern match, duplicate check, branch
// apply), which is the final authority. Correctness therefore only needs
// the bitmap to be a SUPERSET of the lanes the scalar scan would fire on —
// lanes whose condition inputs are not Int are conservatively forced on,
// and a faulting lane (division by zero anywhere in a chunk) aborts the
// chunk so the caller resumes plain scalar probing at the same scan
// position, reproducing the walker's exact match-or-throw order. Cleared
// lanes are exactly lanes the scalar scan would reject without an error,
// so skipping them is invisible — that skip is the whole speedup.
//
// Sweeps are CHUNKED along the scan order (small chunks first, doubling up
// to kMaxChunk): a dense bucket whose first probe fires pays one small
// batch, while a sparse bucket amortizes the per-chunk setup over ever
// wider vectorized sweeps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/gamma/reaction.hpp"
#include "gammaflow/gamma/store.hpp"

namespace gammaflow::runtime {

/// The ids one innermost bucket visit probes, in scan order: the `head`
/// run, then the `tail` run, both contiguous stretches of the probed
/// bucket. A full cyclic scan from position `from` is head = from..n-1,
/// tail = 0..from-1; a scan limited by a failed-anchor watermark drops the
/// bucket's prefix stamped before it (DESIGN.md §15.5).
struct Scan {
  const gamma::Store::Id* head = nullptr;
  std::size_t head_size = 0;
  const gamma::Store::Id* tail = nullptr;
  std::size_t size = 0;  // head_size plus the tail run

  [[nodiscard]] gamma::Store::Id operator[](std::size_t t) const noexcept {
    return t < head_size ? head[t] : tail[t - head_size];
  }
};

/// Per-thread scratch for batch sweeps; the match pipeline keeps one per
/// thread and re-begins it for every innermost bucket visit.
class BatchMatcher {
 public:
  static constexpr std::size_t kMinChunk = 64;
  static constexpr std::size_t kMaxChunk = 1024;

  /// Prepares a sweep of `scan` (ids of the innermost candidate bucket) for
  /// `reaction` under the outer bindings in the frame slots `outer`.
  /// `join_field` names
  /// the join field whose (field, bound value) bucket `scan` runs over, or is
  /// BatchPlan::kNoField for the pattern's base bucket; the field check
  /// that bucket implies is dropped for the sweep. False when this visit
  /// cannot be batch-evaluated — no plan (unbatchable reaction), or an
  /// outer binding feeding a guard is not Int — or would not pay: with no
  /// guard and no remaining field check the sweep could clear only arity
  /// mismatches, which the scalar probe rejects just as cheaply. The caller
  /// then keeps the plain scalar probe loop. The scanned bucket and the
  /// outer slot values must outlive the chunk() calls of this sweep.
  [[nodiscard]] bool begin(const gamma::Store& store,
                           const gamma::Reaction& reaction, const Scan& scan,
                           std::uint16_t join_field,
                           std::span<const Value* const> outer);

  /// Computes fire bits for scan positions [t, t+width): fire()[j] covers
  /// scan[t+j]. False when a lane faulted — the caller resumes scalar
  /// probing at scan position t (earlier chunks were already exact).
  [[nodiscard]] bool chunk(std::size_t t, std::size_t width);

  [[nodiscard]] const std::uint8_t* fire() const noexcept {
    return fire_.data();
  }

 private:
  const gamma::Store* store_ = nullptr;
  const gamma::CompiledReaction::BatchPlan* plan_ = nullptr;
  Scan scan_;
  bool any_condition_ = false;

  expr::BatchVm vm_;
  /// The plan's field checks this sweep runs (the probed bucket's implied
  /// check left out), each with its EqSlot comparand pointing at the
  /// caller's outer slot value (null for the other kinds).
  struct ActiveCheck {
    const gamma::CompiledReaction::BatchPlan::FieldCheck* check = nullptr;
    const Value* eq_value = nullptr;
  };
  std::vector<ActiveCheck> checks_;
  /// Vector slots the guards actually read: index into columns_ per slot.
  std::vector<gamma::CompiledReaction::BatchPlan::VectorSlot> gather_;
  std::vector<std::vector<std::int64_t>> columns_;
  std::vector<expr::BatchVm::SlotInput> slots_;

  std::vector<gamma::Store::RowRef> rows_;
  std::vector<std::uint8_t> shape_ok_;
  std::vector<std::uint8_t> unknown_;
  std::vector<std::uint8_t> cond_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> fire_;
};

}  // namespace gammaflow::runtime
