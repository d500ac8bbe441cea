// Slot frame: the binder values of one match attempt, indexed by binder slot
// (CompiledReaction::slots(), first occurrence across the replace list).
// The match pipeline binds store columns straight into a frame and the
// compiled bytecode reads its slots, so no name is looked up and no value
// is copied per probe. An Int, Real, Bool or Nil field is constructed in
// place in the frame; a string is referenced at its entry in the store's
// symbol table. One frame serves a whole backtracking search: depth d
// writes only the slots its pattern binds first, which every deeper depth
// reads and no shallower one does, so trying the next candidate at depth d
// simply overwrites them (DESIGN §15.6).
#pragma once

#include <cstdint>
#include <new>
#include <span>

#include "gammaflow/common/inline_vec.hpp"
#include "gammaflow/common/value.hpp"

namespace gammaflow::gamma {

/// What one pattern field does to the frame when it meets an element field,
/// precomputed per field by CompiledReaction.
struct FieldOp {
  enum class Kind : std::uint8_t {
    Lit,   // the field must equal the reaction's literal `index`
    Bind,  // the field's value goes into slot `index` (its first occurrence)
    Eq,    // the field must equal slot `index`, bound by an earlier field
  };
  Kind kind = Kind::Bind;
  /// A slot, or for Lit an index into CompiledReaction::literals().
  std::uint32_t index = 0;
};

class Frame {
 public:
  /// A frame of no slots; resize() sizes it.
  Frame() = default;
  /// Every slot starts unbound (null).
  explicit Frame(std::size_t slots) { resize(slots); }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// Resizes the frame to `slots` slots, every one unbound. A search's
  /// caller keeps one frame per reaction and sizes it once.
  void resize(std::size_t slots) {
    values_.clear();
    slots_.clear();
    values_.resize(slots);
    slots_.resize(slots);
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// The slot pointers the bytecode Vm reads. A slot never bound is null.
  [[nodiscard]] std::span<const Value* const> slots() const noexcept {
    return slots_.span();
  }
  [[nodiscard]] const Value* slot(std::size_t s) const noexcept {
    return slots_[s];
  }

  /// Slot `s` holds Int `v`, built in place in the frame.
  void bind_int(std::size_t s, std::int64_t v) noexcept {
    slots_[s] = ::new (reset(s)) Value(v);
  }
  /// Slot `s` holds Real `v`, built in place in the frame.
  void bind_real(std::size_t s, double v) noexcept {
    slots_[s] = ::new (reset(s)) Value(v);
  }
  /// Slot `s` holds Bool `v`, built in place in the frame.
  void bind_bool(std::size_t s, bool v) noexcept {
    slots_[s] = ::new (reset(s)) Value(v);
  }
  /// Slot `s` holds Nil, built in place in the frame.
  void bind_nil(std::size_t s) noexcept { slots_[s] = ::new (reset(s)) Value(); }
  /// Slot `s` refers to `v`, which must outlive the frame's use.
  void bind_ref(std::size_t s, const Value& v) noexcept { slots_[s] = &v; }

 private:
  /// Destroys slot `s`'s owned value and returns its storage.
  Value* reset(std::size_t s) noexcept {
    Value* v = &values_[s];
    v->~Value();
    return v;
  }

  // Inline for the slot counts the paper uses; neither moves after
  // resize() sizes them.
  InlineVec<Value, 8> values_;
  InlineVec<const Value*, 8> slots_;
};

}  // namespace gammaflow::gamma
