// Bytecode backend for the expression IR: a one-pass compiler from the Expr
// AST into a compact register machine, and a stack-free Vm that executes it.
//
// Why: every engine evaluates reaction conditions and by-list expressions on
// EVERY candidate match, so the Γ fixed-point hot path is dominated by AST
// walking — shared_ptr chasing, per-node kind dispatch, and a string lookup
// per variable occurrence. Compiling once per program load replaces all of
// that with a flat Instr array over a register file: variables become slot
// indices resolved at compile time, literals live in a constant pool, and
// evaluation is a single dispatch loop with no allocation.
//
// Equivalence obligation (enforced by the differential suite in
// tests/test_bytecode.cpp): for any expression and environment, Vm::run on
// compile(e) returns exactly what eval(e, env) returns — same Value (kind
// and payload), same short-circuit behaviour for and/or, and a TypeError /
// ProgramError whenever the walker throws one. The compiler therefore folds
// only literal subtrees whose evaluation succeeds (the same guard
// expr::simplify uses) and applies NO algebraic identities: `0 + x -> x`
// style rewrites can erase the walker's type errors, which would break
// state-identity between the engines and the walker they are tested against.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gammaflow/common/value.hpp"
#include "gammaflow/expr/ast.hpp"

namespace gammaflow::expr {

/// Register-machine opcodes. Three-operand form over registers r[dst], r[a],
/// r[b]; LoadConst/LoadSlot use `a` as a pool/slot index, the conditional
/// jumps use `b` as an absolute instruction target. See DESIGN.md §8 for the
/// full ISA table.
enum class OpCode : std::uint8_t {
  LoadConst,  // r[dst] = consts[a]
  LoadSlot,   // r[dst] = *slots[a]          (binder slot, resolved at compile)
  Add,        // r[dst] = r[a] + r[b]        (checked, promoting — value.hpp)
  Sub,        // r[dst] = r[a] - r[b]
  Mul,        // r[dst] = r[a] * r[b]
  Div,        // r[dst] = r[a] / r[b]        (int/int is integer division)
  Mod,        // r[dst] = r[a] % r[b]        (two ints only)
  Lt,         // r[dst] = Bool(r[a] < r[b])
  Le,         // r[dst] = Bool(r[a] <= r[b])
  Gt,         // r[dst] = Bool(r[a] > r[b])
  Ge,         // r[dst] = Bool(r[a] >= r[b])
  Eq,         // r[dst] = Bool(r[a] == r[b]) (structural)
  Ne,         // r[dst] = Bool(r[a] != r[b])
  Neg,        // r[dst] = -r[a]
  Not,        // r[dst] = not r[a]
  Truthy,     // r[dst] = Bool(truthy(r[a])) (and/or result normalization)
  JumpIfFalsy,   // if !truthy(r[a]) { r[dst] = Bool(false); pc = b }
  JumpIfTruthy,  // if  truthy(r[a]) { r[dst] = Bool(true);  pc = b }
  Ret,        // return r[a]
};

const char* to_string(OpCode op) noexcept;

struct Instr {
  OpCode op = OpCode::Ret;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
};

/// A compiled expression: flat code, constant pool, and the register/slot
/// footprint the Vm needs. Immutable after compile(); safe to share across
/// threads (each thread brings its own Vm).
struct Chunk {
  std::vector<Instr> code;
  std::vector<Value> consts;
  /// Binder slot names in slot-index order (diagnostics / disassembly; the
  /// code itself refers to slots by index only).
  std::vector<std::string> slot_names;
  std::uint16_t register_count = 0;

  /// Human-readable listing, one instruction per line (tests, DESIGN.md).
  [[nodiscard]] std::string disassemble() const;
};

/// Compiles `e` against a fixed slot layout: every Var must name an entry of
/// `slot_names` (its index becomes the LoadSlot operand) — a miss is a
/// compile-time ProgramError, which is strictly earlier than the walker's
/// eval-time error and only reachable through unvalidated expressions.
/// Literal-only subtrees are folded when their evaluation succeeds; throwing
/// subtrees (1/0) are preserved so runtime errors match the walker.
[[nodiscard]] Chunk compile(const ExprPtr& e,
                            std::span<const std::string> slot_names);

/// Process-wide count of the nodes compile()'s constant fold has decided (a
/// relaxed counter, flushed once per compile): one per node of each
/// compiled tree, so a test can bound the fold's work without a clock.
[[nodiscard]] std::uint64_t compile_fold_steps() noexcept;

/// Executes chunks. Owns a reusable register file so steady-state evaluation
/// allocates nothing; one Vm per thread (engines keep one per worker).
class Vm {
 public:
  /// Runs `chunk` with `slots[i]` bound to slot i (pointers, not copies —
  /// the caller's environment outlives the call). A null slot pointer means
  /// "unbound": referencing it throws the walker's ProgramError, and a slot
  /// the evaluated path never touches may stay null, exactly like lazy
  /// Env::lookup. Value operations throw TypeError as the walker does.
  [[nodiscard]] Value run(const Chunk& chunk,
                          std::span<const Value* const> slots);

  /// Instructions retired by THIS Vm since construction.
  [[nodiscard]] std::uint64_t instrs_executed() const noexcept {
    return instrs_;
  }

 private:
  std::vector<Value> regs_;
  std::uint64_t instrs_ = 0;
};

/// Process-wide count of VM instructions retired (relaxed counter flushed
/// once per Vm::run). Engines report per-run deltas as the
/// `vm.instrs_executed` metric.
[[nodiscard]] std::uint64_t vm_instrs_executed() noexcept;

// ---- Batch backend --------------------------------------------------------
//
// A second, narrower compilation target for CONDITIONS evaluated over whole
// candidate column batches (the match pipeline's innermost bucket).
// compile_batch() translates a scalar Chunk into straight-line lane code: the
// and/or jumps are eliminated by evaluating both sides eagerly and joining
// with AndBool/OrBool (sound because batch lanes are all-Int and the only
// faulting lane ops, Div/Mod by a runtime value, abort the whole batch
// instead of throwing), and the hot
// LoadSlot/LoadConst→op pairs bench_bytecode measures are fused into the
// consuming instruction's operands (Kind::Slot / Kind::Imm), so the typical
// field comparison is ONE instruction per batch instead of three per
// element. Translation refuses (nullopt) anything whose lane semantics could
// diverge from the scalar Vm — non-Int/Bool constants, Neg/arith on Bool,
// division by a literal zero — and the match pipeline then falls back to the
// scalar probe path for that reaction, keeping batch ≡ scalar ≡ AST exact.

/// One fused operand: a (vector or scalar) register, a binder slot, or an
/// immediate folded straight out of the constant pool.
struct BatchOperand {
  enum class Kind : std::uint8_t { Reg, Slot, Imm };
  Kind kind = Kind::Imm;
  /// True when the operand varies per lane (a vector register, or a slot the
  /// caller feeds as a gathered column); false = broadcast scalar.
  bool vec = false;
  std::uint16_t index = 0;  // register or slot index (Kind::Reg / Kind::Slot)
  std::int64_t imm = 0;     // payload for Kind::Imm (Bool constants as 0/1)
};

/// Lane opcodes. Every lane is an int64 (Bool results are 0/1); comparisons
/// go through double exactly like the scalar Vm and value.cpp's compare(),
/// so bitmaps are bit-identical with per-element evaluation — including the
/// >2^53 precision quirks.
enum class BatchOp : std::uint8_t {
  Add, Sub, Mul,
  Div, Mod,   // a zero divisor in ANY lane aborts the batch (scalar fallback)
  Lt, Le, Gt, Ge, Eq, Ne,
  Neg,
  Not,        // lane = (a == 0)
  Truthy,     // lane = (a != 0)
  AndBool, OrBool,  // eager joins of the lowered and/or (0/1 lanes)
  Ret,        // bitmap out: lane != 0
};

struct BatchInstr {
  BatchOp op = BatchOp::Ret;
  std::uint16_t dst = 0;
  bool dst_vec = false;  // result varies per lane (any operand does)
  BatchOperand a;
  BatchOperand b;
};

/// A batch-compiled condition. Immutable after compile_batch(); safe to
/// share across threads (each thread brings its own BatchVm).
struct BatchChunk {
  std::vector<BatchInstr> code;
  std::uint16_t register_count = 0;
  /// slot -> 1 when the code references it; the match pipeline gathers
  /// columns (vector slots) / type-checks bindings (scalar slots) only for
  /// slots the condition actually reads.
  std::vector<std::uint8_t> slot_used;
  /// Loads folded into consuming operands (superinstruction fusion tally).
  std::size_t fused_loads = 0;
};

/// Translates a compiled condition for batch evaluation; `slot_is_vector[i]`
/// marks slots that vary per lane (innermost-pattern binders) as opposed to
/// broadcast scalars bound by the outer patterns. Returns nullopt when the
/// chunk is not batchable (see module note) — callers keep the scalar path.
[[nodiscard]] std::optional<BatchChunk> compile_batch(
    const Chunk& chunk, std::span<const std::uint8_t> slot_is_vector);

/// Executes batch chunks over n lanes. Owns reusable lane buffers so
/// steady-state evaluation allocates nothing; one BatchVm per thread.
class BatchVm {
 public:
  struct SlotInput {
    const std::int64_t* column = nullptr;  // lane data (vector slots)
    std::int64_t scalar = 0;               // broadcast value (scalar slots)
  };

  /// Evaluates `chunk` over lanes 0..n-1; on success `truthy_out[i]` is 1
  /// exactly when the scalar Vm would return a truthy Value on lane i's
  /// bindings. Returns false when any lane divides by zero — the caller must
  /// fall back to the scalar path for the whole batch, which reproduces the
  /// walker's TypeError iff scalar probing actually reaches a faulting lane.
  [[nodiscard]] bool run(const BatchChunk& chunk,
                         std::span<const SlotInput> slots, std::size_t n,
                         std::vector<std::uint8_t>& truthy_out);

 private:
  std::vector<std::vector<std::int64_t>> regs_;
};

/// Process-wide batch-evaluation counters (relaxed; engines report per-run
/// deltas as `vm.batch_evals`, `vm.batch_lanes` — the exact sum of lane
/// counts — and the `vm.batch_width` histogram).
[[nodiscard]] std::uint64_t batch_evals() noexcept;
[[nodiscard]] std::uint64_t batch_lanes() noexcept;
/// Width histogram: counts[b] = evals whose lane count n has bit_width(n)
/// == b, i.e. n in [2^(b-1), 2^b). Widths beyond 2^31 share the last bucket.
inline constexpr std::size_t kBatchWidthBuckets = 33;
[[nodiscard]] std::array<std::uint64_t, kBatchWidthBuckets>
batch_width_counts() noexcept;

}  // namespace gammaflow::expr
