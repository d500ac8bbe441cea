// Reaction = (condition, action) pair of the Γ operator, in the multi-branch
// surface form the paper uses:
//
//   name = replace <patterns>
//          by <outputs₁> if <cond₁>
//          by <outputs₂> else
//
// Applicability: the patterns match a tuple of distinct multiset elements
// AND some branch fires (its condition holds, it is the `else`, or it is
// unconditional). Firing removes the matched elements and inserts the
// branch's outputs ("by 0" inserts nothing) — i.e. one step of
// (M - {x..}) + A(x..) from Eq. (1).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gammaflow/expr/ast.hpp"
#include "gammaflow/expr/bytecode.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/gamma/element.hpp"
#include "gammaflow/gamma/frame.hpp"
#include "gammaflow/gamma/pattern.hpp"

namespace gammaflow::gamma {

class Reaction;

/// Bytecode cache for one reaction: every condition and by-list field
/// expression compiled once against the reaction's binder-slot layout (first
/// occurrence across the replace list), plus one FieldOp per pattern field
/// that binds or checks those slots in a Frame. The match pipeline binds
/// store columns into a Frame with the ops and runs the bytecode on its
/// slots, with no name lookups. Built eagerly by the Reaction constructor and
/// shared by copies; immutable, thread-safe to read, each evaluating thread
/// brings its own expr::Vm.
class CompiledReaction {
 public:
  explicit CompiledReaction(const Reaction& reaction);

  /// How the firing branch produces one by-list field. A bare binder copies
  /// its slot and a bare literal is one of literals(), so neither runs the
  /// Vm and the match pipeline hands the store the field's cell as it is;
  /// any other field runs its chunk.
  struct OutputField {
    enum class Kind : std::uint8_t { Slot, Literal, Computed };
    Kind kind = Kind::Computed;
    /// The slot, the index into literals(), or the index into `chunks`.
    std::uint32_t index = 0;
  };

  struct BranchCode {
    /// Missing = unconditional (or else) branch, mirroring Branch::condition.
    std::optional<expr::Chunk> condition;
    bool is_else = false;
    /// The by-list fields, tuple after tuple (the tuple arities are those of
    /// the Branch's outputs).
    std::vector<OutputField> fields;
    /// Every field's compiled expression, in field order; a Computed field
    /// runs chunks[index].
    std::vector<expr::Chunk> chunks;
  };

  /// Batch-matching plan for the INNERMOST pattern (the last replace-list
  /// entry — the candidate bucket the match pipeline sweeps as column
  /// batches). Built when every structural field is expressible as a lane
  /// check and every branch guard batch-compiles; otherwise batch_plan() is
  /// null and the pipeline silently keeps the scalar probe path for this
  /// reaction.
  struct BatchPlan {
    static constexpr std::uint16_t kNoField = 0xffff;

    /// Structural lane checks beyond liveness and arity, one per
    /// constrained field. The check on the probed bucket's own field (the
    /// key constraint, or the join field) is implied by that bucket, so
    /// BatchMatcher::begin drops it for the visit.
    struct FieldCheck {
      enum class Kind : std::uint8_t {
        LitInt,   // field holds Int `imm`
        Lit,      // field equals literal `imm` of literals() (non-Int)
        EqField,  // field equals earlier field `other` of the same element
        EqSlot,   // field equals the outer binding of slot `slot`
      };
      Kind kind = Kind::LitInt;
      std::uint16_t field = 0;
      std::uint16_t other = 0;
      std::uint16_t slot = 0;
      std::int64_t imm = 0;
    };
    /// Innermost binders (first occurrence): slot -> source field. These are
    /// the lane columns the matcher gathers for condition slots.
    struct VectorSlot {
      std::uint16_t slot = 0;
      std::uint16_t field = 0;
    };

    std::size_t arity = 0;           // innermost pattern arity
    /// The innermost pattern's key-constraint field (kNoField: none) — the
    /// field of its base bucket, whose Lit/LitInt check that bucket implies.
    std::uint16_t key_field = kNoField;
    std::vector<FieldCheck> checks;
    std::vector<VectorSlot> vector_slots;
    std::vector<std::uint8_t> slot_is_vector;  // slots().size() entries
    /// Union of slot_used across all batch-compiled guards: which slots the
    /// matcher must gather (vector) or Int-check and broadcast (scalar).
    std::vector<std::uint8_t> cond_slot_used;
    /// 1:1 with branches(): the batch form of each guard (nullopt for an
    /// unconditional/else branch, which fires every pending lane).
    std::vector<std::optional<expr::BatchChunk>> conditions;
  };

  [[nodiscard]] const BatchPlan* batch_plan() const noexcept {
    return batch_ ? &*batch_ : nullptr;
  }

  /// A join field: field `field` of a pattern repeats the binder in slot
  /// `slot`, which field `bound_field` of the EARLIER pattern `bound_depth`
  /// binds first. When the two fields are the same field, the element
  /// matched at `bound_depth` sits in the very (field, bound value) bucket
  /// the join probes, so the match pipeline reads it off that element
  /// (Store::bucket_of) with no lookup.
  struct JoinField {
    std::uint16_t field = 0;
    std::uint16_t slot = 0;
    std::uint16_t bound_depth = 0;
    std::uint16_t bound_field = 0;
  };
  /// The join table, one entry per pattern (empty when the pattern binds
  /// nothing an outer pattern bound). Once the outer patterns are matched,
  /// pattern d can only match ids in every (field, bound value) bucket of
  /// joins()[d], so the match pipeline probes the smallest of them.
  [[nodiscard]] const std::vector<std::vector<JoinField>>& joins()
      const noexcept {
    return joins_;
  }

  /// Binder-slot layout: slot i holds the i-th distinct binder name.
  [[nodiscard]] const std::vector<std::string>& slots() const noexcept {
    return slots_;
  }
  /// The frame ops, one list per pattern with one op per field: Lit for a
  /// literal, Bind for a binder's first occurrence across the replace list,
  /// Eq for every later one. Matching patterns 0..k-1 in order into one
  /// Frame is Pattern::match into one Env, slot for name.
  [[nodiscard]] const std::vector<std::vector<FieldOp>>& field_ops()
      const noexcept {
    return field_ops_;
  }
  [[nodiscard]] const std::vector<BranchCode>& branches() const noexcept {
    return branches_;
  }
  /// The reaction's literals: first every pattern literal, in replace-list
  /// order (the Lit ops' indices), then every bare literal by-list field
  /// (the Literal output fields'). A store the reaction runs on holds each
  /// as a cell: runtime::MatchSite pins the strings once.
  [[nodiscard]] const std::vector<Value>& literals() const noexcept {
    return literals_;
  }
  /// literals()[i] is a pattern literal exactly when i < pattern_literals().
  [[nodiscard]] std::size_t pattern_literals() const noexcept {
    return pattern_literals_;
  }
  /// Wall time spent compiling this reaction (`expr.compile_ms` metric).
  [[nodiscard]] double compile_ms() const noexcept { return compile_ms_; }
  /// Total bytecode instructions across all chunks.
  [[nodiscard]] std::size_t instr_count() const noexcept;

  /// The index of the firing branch under `slots` (nullopt: no branch
  /// fires): the first whose guard holds, the unconditional one, or the
  /// else. The same branch and thrown error as Reaction::apply under the
  /// Env binding each slot's name; running the branch's chunks in order then
  /// gives its outputs.
  [[nodiscard]] std::optional<std::uint32_t> select(
      std::span<const Value* const> slots, expr::Vm& vm) const;

 private:
  void build_batch_plan(const Reaction& reaction);

  std::vector<std::string> slots_;
  std::vector<std::vector<FieldOp>> field_ops_;
  std::vector<std::vector<JoinField>> joins_;
  std::vector<BranchCode> branches_;
  std::vector<Value> literals_;
  std::size_t pattern_literals_ = 0;
  std::optional<BatchPlan> batch_;
  double compile_ms_ = 0.0;
};

struct Branch {
  /// Guard; null means unconditional (fires whenever patterns match) unless
  /// is_else is set, in which case it fires when no earlier branch did.
  expr::ExprPtr condition;
  bool is_else = false;
  /// Each output is a tuple of field expressions over the pattern binders.
  /// Empty vector = "by 0": consume without producing.
  std::vector<std::vector<expr::ExprPtr>> outputs;

  static Branch unconditional(std::vector<std::vector<expr::ExprPtr>> outputs) {
    return Branch{nullptr, false, std::move(outputs)};
  }
  static Branch when(expr::ExprPtr condition,
                     std::vector<std::vector<expr::ExprPtr>> outputs) {
    return Branch{std::move(condition), false, std::move(outputs)};
  }
  static Branch otherwise(std::vector<std::vector<expr::ExprPtr>> outputs) {
    return Branch{nullptr, true, std::move(outputs)};
  }
};

class Reaction {
 public:
  Reaction(std::string name, std::vector<Pattern> patterns,
           std::vector<Branch> branches);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Pattern>& patterns() const noexcept {
    return patterns_;
  }
  [[nodiscard]] const std::vector<Branch>& branches() const noexcept {
    return branches_;
  }
  /// Number of elements consumed per firing.
  [[nodiscard]] std::size_t arity() const noexcept { return patterns_.size(); }

  /// Binds `elements` (one per pattern, in order) into `env`. Returns false
  /// on structural mismatch. env content is unspecified on failure.
  [[nodiscard]] bool match(std::span<const Element* const> elements,
                           expr::Env& env) const;

  /// Selects the firing branch under `env` and evaluates its outputs by
  /// walking the expression trees. nullopt = patterns matched but no branch
  /// applies (reaction not enabled on this tuple). Engines run the compiled
  /// form (compiled().apply over a Frame); this walker is the reference the
  /// differential tests compare it against.
  [[nodiscard]] std::optional<std::vector<Element>> apply(
      const expr::Env& env) const;

  /// The bytecode compiled once at construction (never null; copies share).
  [[nodiscard]] const CompiledReaction& compiled() const noexcept {
    return *compiled_;
  }

  /// True when every firing preserves or shrinks multiset size — a simple
  /// sufficient condition for termination of a single-reaction program.
  [[nodiscard]] bool is_shrinking() const noexcept;

  [[nodiscard]] std::string to_string() const;

 private:
  void validate() const;

  std::string name_;
  std::vector<Pattern> patterns_;
  std::vector<Branch> branches_;
  std::shared_ptr<const CompiledReaction> compiled_;
};

std::ostream& operator<<(std::ostream& os, const Reaction& r);

}  // namespace gammaflow::gamma
