#include "gammaflow/expr/bytecode.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "gammaflow/common/error.hpp"
#include "gammaflow/expr/eval.hpp"

namespace gammaflow::expr {

namespace {

std::atomic<std::uint64_t> g_vm_instrs{0};
std::atomic<std::uint64_t> g_fold_steps{0};

constexpr std::size_t kOperandLimit =
    std::numeric_limits<std::uint16_t>::max();

OpCode opcode_for(BinOp op) {
  switch (op) {
    case BinOp::Add: return OpCode::Add;
    case BinOp::Sub: return OpCode::Sub;
    case BinOp::Mul: return OpCode::Mul;
    case BinOp::Div: return OpCode::Div;
    case BinOp::Mod: return OpCode::Mod;
    case BinOp::Lt: return OpCode::Lt;
    case BinOp::Le: return OpCode::Le;
    case BinOp::Gt: return OpCode::Gt;
    case BinOp::Ge: return OpCode::Ge;
    case BinOp::Eq: return OpCode::Eq;
    case BinOp::Ne: return OpCode::Ne;
    case BinOp::And:
    case BinOp::Or: break;  // lowered to jumps, never a direct opcode
  }
  throw ProgramError("bytecode: operator has no direct opcode");
}

class Compiler {
 public:
  explicit Compiler(std::span<const std::string> slot_names)
      : slots_(slot_names) {}

  Chunk compile(const ExprPtr& e) {
    if (!e) throw ProgramError("bytecode: cannot compile a null expression");
    fold(*e);
    const std::uint16_t result = emit(*e, 0);
    push({OpCode::Ret, 0, result, 0});
    chunk_.slot_names.assign(slots_.begin(), slots_.end());
    return std::move(chunk_);
  }

 private:
  /// A node's entry in `folded_`: its subtree's constant value, if it has
  /// one and no ancestor folds too, and the subtree's size in nodes (a
  /// folded subtree's entries are skipped as one).
  struct Folded {
    std::optional<Value> value;
    std::size_t nodes = 1;
  };

  /// Records, in pre-order, the value of every maximal subtree that
  /// evaluates without variables exactly as the walker would (see
  /// `value_of`). Each node is decided once from its children's entries, so
  /// folding is linear in the tree's size; once a node folds, its children's
  /// values are dropped, so a constant chain holds one intermediate at a
  /// time, as the walker does. The walk keeps its own stack, so its depth
  /// costs heap, not call frames.
  void fold(const Expr& root) {
    struct Pending {
      const Expr* e;
      std::size_t at;        // the node's entry in folded_
      std::size_t next = 0;  // children entered so far
    };
    std::vector<Pending> stack{{&root, 0}};
    folded_.emplace_back();
    std::uint64_t steps = 0;  // nodes decided
    while (!stack.empty()) {
      Pending& top = stack.back();
      const Expr& e = *top.e;
      const std::size_t children = e.kind() == Expr::Kind::Binary  ? 2
                                    : e.kind() == Expr::Kind::Unary ? 1
                                                                    : 0;
      if (top.next < children) {
        const Expr& child = e.kind() == Expr::Kind::Unary ? *e.operand()
                            : top.next == 0               ? *e.lhs()
                                                          : *e.rhs();
        ++top.next;
        stack.push_back({&child, folded_.size()});
        folded_.emplace_back();
        continue;
      }
      // Pre-order: the first child's entry follows the node's, the second
      // follows the first child's subtree.
      const std::size_t at = top.at;
      const std::size_t lhs = at + 1;
      std::optional<Value> value;
      if (children == 1) {
        value = value_of(e, folded_[lhs].value, std::nullopt);
        if (value) folded_[lhs].value.reset();
      } else if (children == 2) {
        const std::size_t rhs = lhs + folded_[lhs].nodes;
        value = value_of(e, folded_[lhs].value, folded_[rhs].value);
        if (value) {
          folded_[lhs].value.reset();
          folded_[rhs].value.reset();
        }
      } else {
        value = value_of(e, std::nullopt, std::nullopt);
      }
      folded_[at].value = std::move(value);
      folded_[at].nodes = folded_.size() - at;
      stack.pop_back();
      ++steps;
    }
    g_fold_steps.fetch_add(steps, std::memory_order_relaxed);
  }

  /// `e`'s value from its operands' (`a`, `b`; empty when an operand has
  /// none), including short-circuit logic: `lhs and rhs` folds to false
  /// when lhs folds falsy even if rhs references variables or would throw —
  /// the walker never evaluates rhs in that case either. Empty (no fold)
  /// whenever evaluation would throw, preserving the runtime error for the
  /// Vm.
  static std::optional<Value> value_of(const Expr& e,
                                       const std::optional<Value>& a,
                                       const std::optional<Value>& b) {
    try {
      switch (e.kind()) {
        case Expr::Kind::Literal:
          return e.literal();
        case Expr::Kind::Var:
          return std::nullopt;
        case Expr::Kind::Unary:
          if (!a) return std::nullopt;
          return apply(e.un_op(), *a);
        case Expr::Kind::Binary:
          if (!a) return std::nullopt;
          if (e.bin_op() == BinOp::And) {
            if (!a->truthy()) return Value(false);
            if (!b) return std::nullopt;
            return Value(b->truthy());
          }
          if (e.bin_op() == BinOp::Or) {
            if (a->truthy()) return Value(true);
            if (!b) return std::nullopt;
            return Value(b->truthy());
          }
          if (!b) return std::nullopt;
          return apply(e.bin_op(), *a, *b);
      }
    } catch (const Error&) {
      return std::nullopt;
    }
    return std::nullopt;
  }

  /// Emits code leaving the result in register `dst`; returns `dst`. Walks
  /// the tree in the pre-order `fold` recorded it in: a subtree with a value
  /// is one constant load.
  /// Register discipline: a binary node evaluates lhs into dst and rhs into
  /// dst+1, so live registers form a stack and the high-water mark equals
  /// the tree's right-spine depth.
  std::uint16_t emit(const Expr& e, std::uint16_t dst) {
    reserve(dst);
    const Folded& folded = folded_[next_];
    if (folded.value) {
      push({OpCode::LoadConst, dst, intern(*folded.value), 0});
      next_ += folded.nodes;
      return dst;
    }
    ++next_;
    switch (e.kind()) {
      case Expr::Kind::Literal:
        break;  // a literal always folds
      case Expr::Kind::Var:
        push({OpCode::LoadSlot, dst, slot_of(e.var()), 0});
        return dst;
      case Expr::Kind::Unary: {
        emit(*e.operand(), dst);
        push({e.un_op() == UnOp::Neg ? OpCode::Neg : OpCode::Not, dst, dst, 0});
        return dst;
      }
      case Expr::Kind::Binary: {
        if (e.bin_op() == BinOp::And || e.bin_op() == BinOp::Or) {
          // `a and b` == truthy(a) ? Bool(truthy(b)) : Bool(false); the jump
          // writes the short-circuit constant into dst itself, so no merge
          // move is needed.
          const OpCode jump = e.bin_op() == BinOp::And ? OpCode::JumpIfFalsy
                                                       : OpCode::JumpIfTruthy;
          emit(*e.lhs(), dst);
          const std::size_t patch = chunk_.code.size();
          push({jump, dst, dst, 0});
          emit(*e.rhs(), dst);
          push({OpCode::Truthy, dst, dst, 0});
          chunk_.code[patch].b = checked_u16(chunk_.code.size(),
                                             "bytecode: jump target");
          return dst;
        }
        emit(*e.lhs(), dst);
        const std::uint16_t rhs =
            checked_u16(std::size_t{dst} + 1, "bytecode: expression too deep");
        emit(*e.rhs(), rhs);
        push({opcode_for(e.bin_op()), dst, dst, rhs});
        return dst;
      }
    }
    throw ProgramError("bytecode: unknown expression kind");
  }

  std::uint16_t slot_of(const std::string& name) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i] == name) {
        return checked_u16(i, "bytecode: slot index");
      }
    }
    throw ProgramError("unbound variable '" + name + "' (not a binder slot)");
  }

  std::uint16_t intern(const Value& v) {
    for (std::size_t i = 0; i < chunk_.consts.size(); ++i) {
      if (chunk_.consts[i] == v) {
        return checked_u16(i, "bytecode: constant index");
      }
    }
    chunk_.consts.push_back(v);
    return checked_u16(chunk_.consts.size() - 1, "bytecode: constant pool");
  }

  void reserve(std::uint16_t reg) {
    if (std::size_t{reg} + 1 > chunk_.register_count) {
      chunk_.register_count = static_cast<std::uint16_t>(reg + 1);
    }
  }

  void push(Instr in) { chunk_.code.push_back(in); }

  static std::uint16_t checked_u16(std::size_t v, const char* what) {
    if (v > kOperandLimit) throw ProgramError(std::string(what) + " overflow");
    return static_cast<std::uint16_t>(v);
  }

  std::span<const std::string> slots_;
  std::vector<Folded> folded_;
  std::size_t next_ = 0;  // emit's position in folded_
  Chunk chunk_;
};

/// Inline truthiness for the jump/normalization opcodes; falls back to
/// Value::truthy() (out-of-line) only to raise its exact TypeError.
inline bool fast_truthy(const Value& v) {
  if (const bool* b = v.if_bool()) return *b;
  if (const std::int64_t* i = v.if_int()) return *i != 0;
  return v.truthy();  // throws; never returns
}

}  // namespace

const char* to_string(OpCode op) noexcept {
  switch (op) {
    case OpCode::LoadConst: return "loadconst";
    case OpCode::LoadSlot: return "loadslot";
    case OpCode::Add: return "add";
    case OpCode::Sub: return "sub";
    case OpCode::Mul: return "mul";
    case OpCode::Div: return "div";
    case OpCode::Mod: return "mod";
    case OpCode::Lt: return "lt";
    case OpCode::Le: return "le";
    case OpCode::Gt: return "gt";
    case OpCode::Ge: return "ge";
    case OpCode::Eq: return "eq";
    case OpCode::Ne: return "ne";
    case OpCode::Neg: return "neg";
    case OpCode::Not: return "not";
    case OpCode::Truthy: return "truthy";
    case OpCode::JumpIfFalsy: return "jumpiffalsy";
    case OpCode::JumpIfTruthy: return "jumpiftruthy";
    case OpCode::Ret: return "ret";
  }
  return "?";
}

std::string Chunk::disassemble() const {
  std::ostringstream os;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const Instr& in = code[pc];
    os << pc << ": " << to_string(in.op);
    switch (in.op) {
      case OpCode::LoadConst:
        os << " r" << in.dst << ", " << consts[in.a];
        break;
      case OpCode::LoadSlot:
        os << " r" << in.dst << ", s" << in.a;
        if (in.a < slot_names.size()) os << " (" << slot_names[in.a] << ")";
        break;
      case OpCode::Neg:
      case OpCode::Not:
      case OpCode::Truthy:
        os << " r" << in.dst << ", r" << in.a;
        break;
      case OpCode::JumpIfFalsy:
      case OpCode::JumpIfTruthy:
        os << " r" << in.a << ", ->" << in.b << " (r" << in.dst << ")";
        break;
      case OpCode::Ret:
        os << " r" << in.a;
        break;
      default:
        os << " r" << in.dst << ", r" << in.a << ", r" << in.b;
        break;
    }
    os << '\n';
  }
  return os.str();
}

Chunk compile(const ExprPtr& e, std::span<const std::string> slot_names) {
  return Compiler(slot_names).compile(e);
}

Value Vm::run(const Chunk& chunk, std::span<const Value* const> slots) {
  if (regs_.size() < chunk.register_count) regs_.resize(chunk.register_count);
  const Instr* code = chunk.code.data();
  std::size_t pc = 0;
  std::uint64_t retired = 0;
  // Flush the instruction count even when a value op throws (TypeError on
  // mixed kinds), so metrics stay honest on failing conditions.
  struct Flush {
    Vm* vm;
    const std::uint64_t* n;
    ~Flush() {
      vm->instrs_ += *n;
      g_vm_instrs.fetch_add(*n, std::memory_order_relaxed);
    }
  } flush{this, &retired};
  for (;;) {
    const Instr& in = code[pc];
    ++retired;
    switch (in.op) {
      case OpCode::LoadConst:
        regs_[in.dst] = chunk.consts[in.a];
        ++pc;
        break;
      case OpCode::LoadSlot: {
        const Value* slot = slots[in.a];
        if (slot == nullptr) {
          // Matches Env::lookup: the walker only throws when the variable is
          // actually referenced on the evaluated path, and so do we.
          throw ProgramError("unbound variable '" + chunk.slot_names[in.a] +
                             "'");
        }
        regs_[in.dst] = *slot;
        ++pc;
        break;
      }
      // Binary value ops: an inline Int×Int fast path (the dominant case in
      // reaction conditions; + - * wrap as value.cpp's do, and a 0 or -1
      // divisor takes the helper) with a fall-through to the checked helpers in
      // value.cpp for every other kind combination — promotion, string
      // concat, and the exact TypeError texts all come from the same single
      // source of truth as the walker. Comparisons intentionally go through
      // double like value.cpp's compare() so results are bit-identical.
      case OpCode::Add: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] = (xi && yi) ? Value(wrapping_add(*xi, *yi)) : add(x, y);
        ++pc;
        break;
      }
      case OpCode::Sub: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] = (xi && yi) ? Value(wrapping_sub(*xi, *yi)) : sub(x, y);
        ++pc;
        break;
      }
      case OpCode::Mul: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] = (xi && yi) ? Value(wrapping_mul(*xi, *yi)) : mul(x, y);
        ++pc;
        break;
      }
      case OpCode::Div: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] = (xi && yi && *yi != 0 && *yi != -1) ? Value(*xi / *yi)
                                                            : div(x, y);
        ++pc;
        break;
      }
      case OpCode::Mod: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] = (xi && yi && *yi != 0 && *yi != -1) ? Value(*xi % *yi)
                                                            : mod(x, y);
        ++pc;
        break;
      }
      case OpCode::Lt: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] =
            (xi && yi)
                ? Value(static_cast<double>(*xi) < static_cast<double>(*yi))
                : cmp_lt(x, y);
        ++pc;
        break;
      }
      case OpCode::Le: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] =
            (xi && yi)
                ? Value(static_cast<double>(*xi) <= static_cast<double>(*yi))
                : cmp_le(x, y);
        ++pc;
        break;
      }
      case OpCode::Gt: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] =
            (xi && yi)
                ? Value(static_cast<double>(*xi) > static_cast<double>(*yi))
                : cmp_gt(x, y);
        ++pc;
        break;
      }
      case OpCode::Ge: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] =
            (xi && yi)
                ? Value(static_cast<double>(*xi) >= static_cast<double>(*yi))
                : cmp_ge(x, y);
        ++pc;
        break;
      }
      case OpCode::Eq: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] =
            (xi && yi)
                ? Value(static_cast<double>(*xi) == static_cast<double>(*yi))
                : cmp_eq(x, y);
        ++pc;
        break;
      }
      case OpCode::Ne: {
        const Value& x = regs_[in.a];
        const Value& y = regs_[in.b];
        const std::int64_t* xi = x.if_int();
        const std::int64_t* yi = y.if_int();
        regs_[in.dst] =
            (xi && yi)
                ? Value(static_cast<double>(*xi) != static_cast<double>(*yi))
                : cmp_ne(x, y);
        ++pc;
        break;
      }
      case OpCode::Neg: {
        const Value& x = regs_[in.a];
        const std::int64_t* xi = x.if_int();
        regs_[in.dst] = xi ? Value(wrapping_neg(*xi)) : neg(x);
        ++pc;
        break;
      }
      case OpCode::Not:
        regs_[in.dst] = Value(!fast_truthy(regs_[in.a]));
        ++pc;
        break;
      case OpCode::Truthy:
        regs_[in.dst] = Value(fast_truthy(regs_[in.a]));
        ++pc;
        break;
      case OpCode::JumpIfFalsy:
        if (!fast_truthy(regs_[in.a])) {
          regs_[in.dst] = Value(false);
          pc = in.b;
        } else {
          ++pc;
        }
        break;
      case OpCode::JumpIfTruthy:
        if (fast_truthy(regs_[in.a])) {
          regs_[in.dst] = Value(true);
          pc = in.b;
        } else {
          ++pc;
        }
        break;
      case OpCode::Ret:
        return std::move(regs_[in.a]);
    }
  }
}

std::uint64_t vm_instrs_executed() noexcept {
  return g_vm_instrs.load(std::memory_order_relaxed);
}

std::uint64_t compile_fold_steps() noexcept {
  return g_fold_steps.load(std::memory_order_relaxed);
}

// ---- Batch backend --------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_batch_evals{0};
std::atomic<std::uint64_t> g_batch_lanes{0};
std::array<std::atomic<std::uint64_t>, kBatchWidthBuckets> g_batch_width{};

/// One-pass translator from scalar chunks to batch lane code. Walks the
/// scalar instruction stream keeping, per register, what it currently holds:
/// a PENDING load (a slot/constant not yet materialized — the fusion source:
/// the consuming instruction takes it as an operand instead), or a computed
/// value with a static kind (Int or Bool lanes). The and/or jumps become
/// eager joins: at the jump we snapshot truthy(lhs) into a fresh temp
/// register and push a fixup; when translation reaches the jump target the
/// rhs value is sitting in the same register, and we emit AndBool/OrBool
/// over temp and register — exactly the Bool the scalar Vm leaves there on
/// either path. Anything outside the Int/Bool lane model refuses.
class BatchCompiler {
 public:
  BatchCompiler(const Chunk& chunk, std::span<const std::uint8_t> slot_is_vector)
      : chunk_(chunk), slot_vec_(slot_is_vector) {}

  std::optional<BatchChunk> translate() {
    regs_.assign(chunk_.register_count, RegState{});
    next_reg_ = chunk_.register_count;
    out_.slot_used.assign(slot_vec_.size(), 0);
    for (std::size_t pc = 0; pc < chunk_.code.size() && !done_; ++pc) {
      while (!joins_.empty() && joins_.back().target == pc) {
        const Join j = joins_.back();
        joins_.pop_back();
        const BatchOperand lhs = reg_operand(j.temp);
        const BatchOperand rhs = operand(j.reg);
        emit(j.is_and ? BatchOp::AndBool : BatchOp::OrBool, j.reg, lhs, rhs);
        set(j.reg, RegState::Kind::Bool, lhs.vec || rhs.vec);
      }
      if (!step(chunk_.code[pc])) return std::nullopt;
    }
    if (!done_ || !joins_.empty()) return std::nullopt;  // malformed chunk
    out_.register_count = next_reg_;
    return std::move(out_);
  }

 private:
  struct RegState {
    enum class Kind : std::uint8_t { None, Int, Bool };
    Kind kind = Kind::None;
    bool vec = false;
    bool pending = false;  // value is exactly `load`; nothing emitted yet
    BatchOperand load{};
  };
  struct Join {
    std::size_t target;
    std::uint16_t reg;
    std::uint16_t temp;
    bool is_and;
  };
  using Kind = RegState::Kind;

  bool step(const Instr& in) {
    switch (in.op) {
      case OpCode::LoadConst: {
        const Value& v = chunk_.consts[in.a];
        if (const std::int64_t* i = v.if_int()) {
          set_pending(in.dst, Kind::Int,
                      BatchOperand{BatchOperand::Kind::Imm, false, 0, *i});
          return true;
        }
        if (const bool* b = v.if_bool()) {
          set_pending(in.dst, Kind::Bool,
                      BatchOperand{BatchOperand::Kind::Imm, false, 0,
                                   *b ? std::int64_t{1} : std::int64_t{0}});
          return true;
        }
        return false;  // Real/Str/Nil constants: lanes are int64 only
      }
      case OpCode::LoadSlot: {
        if (in.a >= slot_vec_.size()) return false;
        out_.slot_used[in.a] = 1;
        set_pending(in.dst, Kind::Int,
                    BatchOperand{BatchOperand::Kind::Slot,
                                 slot_vec_[in.a] != 0, in.a, 0});
        return true;
      }
      case OpCode::Add:
      case OpCode::Sub:
      case OpCode::Mul: {
        if (kind(in.a) != Kind::Int || kind(in.b) != Kind::Int) return false;
        return binary(arith_op(in.op), in, Kind::Int);
      }
      case OpCode::Div:
      case OpCode::Mod: {
        if (kind(in.a) != Kind::Int || kind(in.b) != Kind::Int) return false;
        const BatchOperand b = operand(in.b);
        // A literal zero divisor is a guaranteed TypeError on the evaluated
        // path — only the scalar evaluators raise it with the right text.
        if (b.kind == BatchOperand::Kind::Imm && b.imm == 0) return false;
        const BatchOperand a = operand(in.a);
        emit(in.op == OpCode::Div ? BatchOp::Div : BatchOp::Mod, in.dst, a, b);
        set(in.dst, Kind::Int, a.vec || b.vec);
        return true;
      }
      case OpCode::Lt:
      case OpCode::Le:
      case OpCode::Gt:
      case OpCode::Ge:
      case OpCode::Eq:
      case OpCode::Ne: {
        if (kind(in.a) != Kind::Int || kind(in.b) != Kind::Int) return false;
        return binary(cmp_op(in.op), in, Kind::Bool);
      }
      case OpCode::Neg: {
        if (kind(in.a) != Kind::Int) return false;
        const BatchOperand a = operand(in.a);
        emit(BatchOp::Neg, in.dst, a, BatchOperand{});
        set(in.dst, Kind::Int, a.vec);
        return true;
      }
      case OpCode::Not:
      case OpCode::Truthy: {
        if (kind(in.a) == Kind::None) return false;
        const BatchOperand a = operand(in.a);
        emit(in.op == OpCode::Not ? BatchOp::Not : BatchOp::Truthy, in.dst, a,
             BatchOperand{});
        set(in.dst, Kind::Bool, a.vec);
        return true;
      }
      case OpCode::JumpIfFalsy:
      case OpCode::JumpIfTruthy: {
        if (in.dst != in.a) return false;  // compiler invariant; be safe
        if (kind(in.a) == Kind::None) return false;
        if (next_reg_ == kOperandLimit) return false;
        const std::uint16_t temp = next_reg_++;
        regs_.push_back(RegState{});
        const BatchOperand a = operand(in.a);
        emit(BatchOp::Truthy, temp, a, BatchOperand{});
        set(temp, Kind::Bool, a.vec);
        joins_.push_back(
            Join{in.b, in.a, temp, in.op == OpCode::JumpIfFalsy});
        return true;
      }
      case OpCode::Ret: {
        if (kind(in.a) == Kind::None) return false;
        emit(BatchOp::Ret, 0, operand(in.a), BatchOperand{});
        done_ = true;
        return true;
      }
    }
    return false;
  }

  bool binary(BatchOp op, const Instr& in, Kind result) {
    const BatchOperand a = operand(in.a);
    const BatchOperand b = operand(in.b);
    emit(op, in.dst, a, b);
    set(in.dst, result, a.vec || b.vec);
    return true;
  }

  static BatchOp arith_op(OpCode op) {
    switch (op) {
      case OpCode::Add: return BatchOp::Add;
      case OpCode::Sub: return BatchOp::Sub;
      default: return BatchOp::Mul;
    }
  }
  static BatchOp cmp_op(OpCode op) {
    switch (op) {
      case OpCode::Lt: return BatchOp::Lt;
      case OpCode::Le: return BatchOp::Le;
      case OpCode::Gt: return BatchOp::Gt;
      case OpCode::Ge: return BatchOp::Ge;
      case OpCode::Eq: return BatchOp::Eq;
      default: return BatchOp::Ne;
    }
  }

  [[nodiscard]] Kind kind(std::uint16_t r) const {
    return r < regs_.size() ? regs_[r].kind : Kind::None;
  }
  /// The register's value as an operand; a pending load fuses here.
  BatchOperand operand(std::uint16_t r) {
    const RegState& s = regs_[r];
    if (s.pending) {
      ++out_.fused_loads;
      return s.load;
    }
    return BatchOperand{BatchOperand::Kind::Reg, s.vec, r, 0};
  }
  BatchOperand reg_operand(std::uint16_t r) const {
    return BatchOperand{BatchOperand::Kind::Reg, regs_[r].vec, r, 0};
  }
  void set(std::uint16_t r, Kind k, bool vec) {
    regs_[r] = RegState{k, vec, false, {}};
  }
  void set_pending(std::uint16_t r, Kind k, BatchOperand load) {
    regs_[r] = RegState{k, load.vec, true, load};
  }
  void emit(BatchOp op, std::uint16_t dst, BatchOperand a, BatchOperand b) {
    out_.code.push_back(BatchInstr{op, dst, a.vec || b.vec, a, b});
  }

  const Chunk& chunk_;
  std::span<const std::uint8_t> slot_vec_;
  BatchChunk out_;
  std::vector<RegState> regs_;
  std::vector<Join> joins_;
  std::uint16_t next_reg_ = 0;
  bool done_ = false;
};

}  // namespace

std::optional<BatchChunk> compile_batch(
    const Chunk& chunk, std::span<const std::uint8_t> slot_is_vector) {
  return BatchCompiler(chunk, slot_is_vector).translate();
}

bool BatchVm::run(const BatchChunk& chunk, std::span<const SlotInput> slots,
                  std::size_t n, std::vector<std::uint8_t>& truthy_out) {
  g_batch_evals.fetch_add(1, std::memory_order_relaxed);
  g_batch_lanes.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  const std::size_t width_bucket = std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(n)), kBatchWidthBuckets - 1);
  g_batch_width[width_bucket].fetch_add(1, std::memory_order_relaxed);

  if (regs_.size() < chunk.register_count) regs_.resize(chunk.register_count);

  struct Src {
    const std::int64_t* col;  // null = broadcast scalar `s`
    std::int64_t s;
  };
  // Resolve dst BEFORE operands: dst may alias an operand register, and the
  // lane-buffer resize must happen before we take that register's pointer.
  auto dst_of = [&](const BatchInstr& in) -> std::int64_t* {
    std::vector<std::int64_t>& d = regs_[in.dst];
    const std::size_t need = in.dst_vec ? n : 1;
    if (d.size() < need) d.resize(need);
    return d.data();
  };
  auto src = [&](const BatchOperand& o) -> Src {
    switch (o.kind) {
      case BatchOperand::Kind::Imm:
        return Src{nullptr, o.imm};
      case BatchOperand::Kind::Slot: {
        const SlotInput& si = slots[o.index];
        return o.vec ? Src{si.column, 0} : Src{nullptr, si.scalar};
      }
      case BatchOperand::Kind::Reg: {
        std::vector<std::int64_t>& r = regs_[o.index];
        return o.vec ? Src{r.data(), 0} : Src{nullptr, r.empty() ? 0 : r[0]};
      }
    }
    return Src{nullptr, 0};
  };
  auto binary = [&](const BatchInstr& in, auto f) {
    std::int64_t* d = dst_of(in);
    const Src a = src(in.a);
    const Src b = src(in.b);
    if (!in.dst_vec) {
      d[0] = f(a.s, b.s);
    } else if (a.col != nullptr && b.col != nullptr) {
      const std::int64_t* x = a.col;
      const std::int64_t* y = b.col;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], y[i]);
    } else if (a.col != nullptr) {
      const std::int64_t* x = a.col;
      const std::int64_t ys = b.s;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], ys);
    } else {
      const std::int64_t xs = a.s;
      const std::int64_t* y = b.col;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(xs, y[i]);
    }
  };
  auto unary = [&](const BatchInstr& in, auto f) {
    std::int64_t* d = dst_of(in);
    const Src a = src(in.a);
    if (!in.dst_vec) {
      d[0] = f(a.s);
      return;
    }
    const std::int64_t* x = a.col;
    for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i]);
  };
  // Any zero divisor — even in a lane the scalar scan might never reach —
  // aborts the batch; the caller's scalar fallback then reproduces the
  // walker's exact match-or-throw order. A -1 divisor is no fault: `f`
  // gives value.cpp's result for it per lane.
  auto divmod = [&](const BatchInstr& in, auto f) -> bool {
    std::int64_t* d = dst_of(in);
    const Src a = src(in.a);
    const Src b = src(in.b);
    if (b.col == nullptr) {
      if (b.s == 0) return false;
      if (!in.dst_vec) {
        d[0] = f(a.s, b.s);
      } else {
        const std::int64_t* x = a.col;
        const std::int64_t ys = b.s;
        for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], ys);
      }
      return true;
    }
    const std::int64_t* y = b.col;
    for (std::size_t i = 0; i < n; ++i) {
      if (y[i] == 0) return false;
    }
    if (a.col != nullptr) {
      const std::int64_t* x = a.col;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(x[i], y[i]);
    } else {
      const std::int64_t xs = a.s;
      for (std::size_t i = 0; i < n; ++i) d[i] = f(xs, y[i]);
    }
    return true;
  };
  auto as_lane = [](bool v) { return v ? std::int64_t{1} : std::int64_t{0}; };

  for (const BatchInstr& in : chunk.code) {
    switch (in.op) {
      case BatchOp::Add:
        binary(in, [](std::int64_t x, std::int64_t y) {
          return wrapping_add(x, y);
        });
        break;
      case BatchOp::Sub:
        binary(in, [](std::int64_t x, std::int64_t y) {
          return wrapping_sub(x, y);
        });
        break;
      case BatchOp::Mul:
        binary(in, [](std::int64_t x, std::int64_t y) {
          return wrapping_mul(x, y);
        });
        break;
      case BatchOp::Div:
        if (!divmod(in, [](std::int64_t x, std::int64_t y) {
              return y == -1 ? wrapping_neg(x) : x / y;
            })) {
          return false;
        }
        break;
      case BatchOp::Mod:
        if (!divmod(in, [](std::int64_t x, std::int64_t y) {
              return y == -1 ? std::int64_t{0} : x % y;
            })) {
          return false;
        }
        break;
      // Comparisons go through double exactly like the scalar Vm (and
      // value.cpp's compare()), so lanes match bit-for-bit even past 2^53.
      case BatchOp::Lt:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) < static_cast<double>(y));
        });
        break;
      case BatchOp::Le:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) <= static_cast<double>(y));
        });
        break;
      case BatchOp::Gt:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) > static_cast<double>(y));
        });
        break;
      case BatchOp::Ge:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) >= static_cast<double>(y));
        });
        break;
      case BatchOp::Eq:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) == static_cast<double>(y));
        });
        break;
      case BatchOp::Ne:
        binary(in, [&](std::int64_t x, std::int64_t y) {
          return as_lane(static_cast<double>(x) != static_cast<double>(y));
        });
        break;
      case BatchOp::Neg:
        unary(in, [](std::int64_t x) { return wrapping_neg(x); });
        break;
      case BatchOp::Not:
        unary(in, [&](std::int64_t x) { return as_lane(x == 0); });
        break;
      case BatchOp::Truthy:
        unary(in, [&](std::int64_t x) { return as_lane(x != 0); });
        break;
      case BatchOp::AndBool:
        binary(in, [](std::int64_t x, std::int64_t y) { return x & y; });
        break;
      case BatchOp::OrBool:
        binary(in, [](std::int64_t x, std::int64_t y) { return x | y; });
        break;
      case BatchOp::Ret: {
        const Src a = src(in.a);
        truthy_out.resize(n);
        if (a.col != nullptr) {
          for (std::size_t i = 0; i < n; ++i) {
            truthy_out[i] = a.col[i] != 0 ? std::uint8_t{1} : std::uint8_t{0};
          }
        } else {
          std::fill(truthy_out.begin(), truthy_out.end(),
                    a.s != 0 ? std::uint8_t{1} : std::uint8_t{0});
        }
        return true;
      }
    }
  }
  return false;  // no Ret: malformed chunk — treat as a fallback signal
}

std::uint64_t batch_evals() noexcept {
  return g_batch_evals.load(std::memory_order_relaxed);
}

std::uint64_t batch_lanes() noexcept {
  return g_batch_lanes.load(std::memory_order_relaxed);
}

std::array<std::uint64_t, kBatchWidthBuckets> batch_width_counts() noexcept {
  std::array<std::uint64_t, kBatchWidthBuckets> out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = g_batch_width[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace gammaflow::expr
