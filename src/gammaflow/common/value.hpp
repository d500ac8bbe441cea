// Value: the dynamically-typed scalar carried on dataflow edges and stored in
// Gamma multiset elements. Supports the operations the paper's examples need
// (integer/real arithmetic, comparisons, boolean logic) with checked,
// promoting semantics: int op double -> double; division by zero and type
// mismatches raise TypeError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>

#include "gammaflow/common/error.hpp"

namespace gammaflow {

enum class ValueKind : std::uint8_t { Nil, Int, Real, Bool, Str };

/// Returns a stable lowercase name ("nil", "int", ...) for diagnostics.
const char* to_string(ValueKind kind) noexcept;

class Value {
 public:
  Value() noexcept : rep_(std::monostate{}) {}
  Value(std::int64_t v) noexcept : rep_(v) {}        // NOLINT(google-explicit-constructor)
  Value(int v) noexcept : rep_(std::int64_t{v}) {}   // NOLINT(google-explicit-constructor)
  Value(double v) noexcept : rep_(v) {}              // NOLINT(google-explicit-constructor)
  Value(bool v) noexcept : rep_(v) {}                // NOLINT(google-explicit-constructor)
  Value(std::string v) : rep_(std::move(v)) {}       // NOLINT(google-explicit-constructor)
  Value(const char* v) : rep_(std::string(v)) {}     // NOLINT(google-explicit-constructor)

  [[nodiscard]] ValueKind kind() const noexcept {
    return static_cast<ValueKind>(rep_.index());
  }
  [[nodiscard]] bool is_nil() const noexcept { return kind() == ValueKind::Nil; }
  [[nodiscard]] bool is_int() const noexcept { return kind() == ValueKind::Int; }
  [[nodiscard]] bool is_real() const noexcept { return kind() == ValueKind::Real; }
  [[nodiscard]] bool is_bool() const noexcept { return kind() == ValueKind::Bool; }
  [[nodiscard]] bool is_str() const noexcept { return kind() == ValueKind::Str; }
  [[nodiscard]] bool is_numeric() const noexcept { return is_int() || is_real(); }

  /// Non-throwing accessors: pointer to the payload, or nullptr on kind
  /// mismatch. Inline so hot loops (the bytecode Vm) can test-and-read
  /// without an out-of-line call.
  [[nodiscard]] const std::int64_t* if_int() const noexcept {
    return std::get_if<std::int64_t>(&rep_);
  }
  [[nodiscard]] const bool* if_bool() const noexcept {
    return std::get_if<bool>(&rep_);
  }
  [[nodiscard]] const std::string* if_str() const noexcept {
    return std::get_if<std::string>(&rep_);
  }

  /// Accessors throw TypeError when the stored kind differs.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_str() const;

  /// Numeric widening: Int or Real -> double. Throws on other kinds.
  [[nodiscard]] double to_real() const;

  /// "Truthiness" used by steer control inputs and Gamma conditions: Bool as
  /// itself, Int nonzero, everything else a TypeError.
  [[nodiscard]] bool truthy() const;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Structural equality (kind + payload). Int 1 != Real 1.0 — important for
  /// deterministic round-trip comparisons.
  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) noexcept {
    return !(a == b);
  }
  /// Total order over (kind, payload), used to canonicalize multisets.
  friend bool operator<(const Value& a, const Value& b) noexcept {
    return a.rep_ < b.rep_;
  }

 private:
  std::variant<std::monostate, std::int64_t, double, bool, std::string> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Int add/sub/mul/neg wrap in two's complement (the result the hardware
/// gives), computed in unsigned arithmetic so that overflow is defined.
/// Inline so the bytecode VMs' Int fast paths share them.
constexpr std::int64_t wrapping_add(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                   static_cast<std::uint64_t>(y));
}
constexpr std::int64_t wrapping_sub(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                   static_cast<std::uint64_t>(y));
}
constexpr std::int64_t wrapping_mul(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                   static_cast<std::uint64_t>(y));
}
constexpr std::int64_t wrapping_neg(std::int64_t x) noexcept {
  return wrapping_sub(0, x);
}

/// Checked arithmetic with int->real promotion. Division: int/int is integer
/// division (C semantics, as the paper's loop example uses integers); any
/// real operand promotes. Mod requires two ints. A -1 divisor never traps:
/// `x / -1` is wrapping negation (INT64_MIN / -1 == INT64_MIN) and
/// `x % -1` is 0.
Value add(const Value& a, const Value& b);
Value sub(const Value& a, const Value& b);
Value mul(const Value& a, const Value& b);
Value div(const Value& a, const Value& b);
Value mod(const Value& a, const Value& b);
Value neg(const Value& a);

/// Comparisons produce Bool; numeric operands compare after promotion,
/// strings lexicographically, bools as false<true. Mixed non-numeric kinds
/// raise TypeError.
Value cmp_lt(const Value& a, const Value& b);
Value cmp_le(const Value& a, const Value& b);
Value cmp_gt(const Value& a, const Value& b);
Value cmp_ge(const Value& a, const Value& b);
Value cmp_eq(const Value& a, const Value& b);
Value cmp_ne(const Value& a, const Value& b);

/// Boolean logic; operands must satisfy truthy()'s domain.
Value logic_and(const Value& a, const Value& b);
Value logic_or(const Value& a, const Value& b);
Value logic_not(const Value& a);

}  // namespace gammaflow

template <>
struct std::hash<gammaflow::Value> {
  std::size_t operator()(const gammaflow::Value& v) const noexcept {
    return v.hash();
  }
};
