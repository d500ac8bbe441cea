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
// to kMaxChunk, counted in live entries): a dense bucket whose first probe
// fires pays one small batch, while a sparse bucket amortizes the
// per-chunk setup over ever wider vectorized sweeps.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/gamma/reaction.hpp"
#include "gammaflow/gamma/store.hpp"

namespace gammaflow::runtime {

/// The entries one bucket visit probes, in scan order: the head run, then
/// the tail run. Positions index the probed bucket's id list (`ids`) or, for
/// an arity bucket, the rows of its column group (`group`), of which a scan
/// visits the live ones only. A full cyclic scan from entry `from` is
/// head = from..n-1, tail = 0..from-1; a scan limited by a failed-anchor
/// watermark drops the bucket's prefix stamped before it (DESIGN.md §15.5).
struct Scan {
  const gamma::Store::Id* ids = nullptr;
  const gamma::Store::ColumnGroup* group = nullptr;
  std::size_t head = 0;       // position of the head run's first entry
  std::size_t tail = 0;       // position of the tail run's first entry
  std::size_t head_size = 0;  // entries in the head run
  std::size_t size = 0;       // head_size plus the tail run's entries
  std::size_t skipped = 0;    // the bucket's entries stamped before the mark

  /// The scan of `bucket`'s entries stamped at or after `mark` (all of
  /// them when `mark` is 0), starting at the first; empty when there are
  /// none.
  [[nodiscard]] static Scan of(const gamma::Store& store,
                               gamma::Store::Candidates bucket,
                               std::uint64_t mark);

  /// Makes the scan cyclic from the bucket's entry `from` (a select on a
  /// group). Precondition: from < the bucket's size.
  void start_at(std::size_t from) noexcept {
    if (from <= skipped) return;
    head = group != nullptr ? group->live.select(from) : from;
    head_size = skipped + size - from;
  }

  /// The id at a position next() returned.
  [[nodiscard]] gamma::Store::Id id(std::size_t pos) const noexcept {
    return group != nullptr ? group->row_ids[pos] : ids[pos];
  }
};

inline Scan Scan::of(const gamma::Store& store,
                     gamma::Store::Candidates bucket, std::uint64_t mark) {
  Scan scan;
  scan.ids = bucket.ids != nullptr ? bucket.ids->data() : nullptr;
  scan.group = bucket.group;
  // `tail` is the first entry's position (on a group, the first row
  // stamped at or after the mark, which may be dead).
  if (mark != 0) {
    if (scan.group != nullptr) {
      scan.tail = scan.group->first_row_stamped(mark);
      scan.skipped = scan.group->live.rank(scan.tail);
    } else {
      scan.skipped = scan.tail = store.first_stamped(bucket, mark);
    }
  }
  scan.head = scan.tail;
  scan.size = scan.head_size = bucket.size() - scan.skipped;
  return scan;
}

/// Walks a Scan's entries in scan order. A copy saves the place. On a
/// group it walks the live bits of the group's bitmap a word at a time.
class ScanCursor {
 public:
  explicit ScanCursor(const Scan& scan) noexcept : scan_(scan) {
    seek(scan.head);
  }

  /// Entries walked so far: the scan position of the next one.
  [[nodiscard]] std::size_t taken() const noexcept { return taken_; }

  /// The next entry's position (an index into `ids`, or a live row of
  /// `group`). Precondition: taken() < size.
  std::size_t next() noexcept {
    if (taken_++ == scan_.head_size) seek(scan_.tail);
    if (scan_.group == nullptr) return pos_++;
    while (bits_ == 0) bits_ = scan_.group->live.word(++pos_);
    const std::size_t row =
        pos_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_));
    bits_ &= bits_ - 1;
    return row;
  }

 private:
  void seek(std::size_t at) noexcept {
    if (scan_.group == nullptr) {
      pos_ = at;
      return;
    }
    pos_ = at >> 6;
    bits_ = 0;
    if (at < scan_.group->rows()) {
      bits_ = scan_.group->live.word(pos_) & (~std::uint64_t{0} << (at & 63));
    }
  }

  Scan scan_;
  std::size_t pos_ = 0;     // the next index into `ids`, or a bitmap word
  std::uint64_t bits_ = 0;  // on a group: word pos_'s live rows not taken
  std::size_t taken_ = 0;
};

/// Per-thread scratch for batch sweeps; the match pipeline keeps one per
/// thread and re-begins it for every innermost bucket visit.
class BatchMatcher {
 public:
  static constexpr std::size_t kMinChunk = 64;
  static constexpr std::size_t kMaxChunk = 1024;

  /// Prepares a sweep of `scan` (the innermost candidate bucket) for
  /// `reaction` under the outer bindings in the frame slots `outer`, with
  /// the reaction's literals as the store's cells in `literals`.
  /// `join_field` names
  /// the join field whose (field, bound value) bucket `scan` runs over, or is
  /// BatchPlan::kNoField for the pattern's base bucket; the field check
  /// that bucket implies is dropped for the sweep. False when this visit
  /// cannot be batch-evaluated — no plan (unbatchable reaction), or an
  /// outer binding feeding a guard is not Int — or would not pay: with no
  /// guard and no remaining field check the sweep could clear only arity
  /// mismatches, which the scalar probe rejects just as cheaply. The caller
  /// then keeps the plain scalar probe loop. The scanned bucket must
  /// outlive the chunk() calls of this sweep.
  [[nodiscard]] bool begin(const gamma::Store& store,
                           const gamma::Reaction& reaction, const Scan& scan,
                           std::uint16_t join_field,
                           std::span<const Value* const> outer,
                           std::span<const gamma::Store::Cell> literals);

  /// Takes the next `width` entries of the scan from `at` and computes
  /// their fire bits: fire()[j] covers id(j), the j-th entry taken.
  /// False when a lane faulted — the caller resumes scalar probing where
  /// `at` stood before the call (earlier chunks were already exact).
  [[nodiscard]] bool chunk(ScanCursor& at, std::size_t width);

  [[nodiscard]] const std::uint8_t* fire() const noexcept {
    return fire_.data();
  }
  /// The id of the chunk's j-th entry.
  [[nodiscard]] gamma::Store::Id id(std::size_t j) const noexcept {
    return rows_[j].group->row_ids[rows_[j].row];
  }

 private:
  const gamma::Store* store_ = nullptr;
  const gamma::CompiledReaction::BatchPlan* plan_ = nullptr;
  const Scan* scan_ = nullptr;
  bool any_condition_ = false;

  expr::BatchVm vm_;
  /// The plan's field checks this sweep runs (the probed bucket's implied
  /// check left out), each with its literal or outer slot comparand as the
  /// store's cell (unset for EqField, and for a string the store never
  /// interned, which no lane holds).
  struct ActiveCheck {
    const gamma::CompiledReaction::BatchPlan::FieldCheck* check = nullptr;
    std::optional<gamma::Store::Cell> cell;
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
