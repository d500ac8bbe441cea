#include "gammaflow/common/value.hpp"

#include <cmath>
#include <functional>
#include <ostream>
#include <sstream>

namespace gammaflow {
namespace {

[[noreturn]] void kind_error(const char* op, const Value& a, const Value& b) {
  throw TypeError(std::string(op) + " not defined for (" +
                  to_string(a.kind()) + ", " + to_string(b.kind()) + ")");
}

[[noreturn]] void kind_error(const char* op, const Value& a) {
  throw TypeError(std::string(op) + " not defined for " + to_string(a.kind()));
}

}  // namespace

const char* to_string(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::Nil: return "nil";
    case ValueKind::Int: return "int";
    case ValueKind::Real: return "real";
    case ValueKind::Bool: return "bool";
    case ValueKind::Str: return "str";
  }
  return "?";
}

std::int64_t Value::as_int() const {
  if (const auto* p = std::get_if<std::int64_t>(&rep_)) return *p;
  throw TypeError(std::string("expected int, got ") + gammaflow::to_string(kind()));
}

double Value::as_real() const {
  if (const auto* p = std::get_if<double>(&rep_)) return *p;
  throw TypeError(std::string("expected real, got ") + gammaflow::to_string(kind()));
}

bool Value::as_bool() const {
  if (const auto* p = std::get_if<bool>(&rep_)) return *p;
  throw TypeError(std::string("expected bool, got ") + gammaflow::to_string(kind()));
}

const std::string& Value::as_str() const {
  if (const auto* p = std::get_if<std::string>(&rep_)) return *p;
  throw TypeError(std::string("expected str, got ") + gammaflow::to_string(kind()));
}

double Value::to_real() const {
  if (const auto* p = std::get_if<std::int64_t>(&rep_)) {
    return static_cast<double>(*p);
  }
  if (const auto* p = std::get_if<double>(&rep_)) return *p;
  throw TypeError(std::string("expected numeric, got ") + gammaflow::to_string(kind()));
}

bool Value::truthy() const {
  if (const auto* p = std::get_if<bool>(&rep_)) return *p;
  if (const auto* p = std::get_if<std::int64_t>(&rep_)) return *p != 0;
  throw TypeError(std::string("no boolean interpretation for ") +
                  gammaflow::to_string(kind()));
}

std::string Value::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::size_t Value::hash() const noexcept {
  const std::size_t kind_salt = rep_.index() * 0x9e3779b97f4a7c15ULL;
  return std::visit(
      [kind_salt](const auto& v) -> std::size_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return kind_salt;
        } else {
          return kind_salt ^ std::hash<T>{}(v);
        }
      },
      rep_);
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case ValueKind::Nil: return os << "nil";
    case ValueKind::Int: return os << v.as_int();
    case ValueKind::Real: {
      // Always keep a decimal marker so Real round-trips distinctly from Int.
      std::ostringstream tmp;
      tmp << v.as_real();
      std::string s = tmp.str();
      if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos && s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return os << s;
    }
    case ValueKind::Bool: return os << (v.as_bool() ? "true" : "false");
    case ValueKind::Str: return os << '\'' << v.as_str() << '\'';
  }
  return os;
}

namespace {

template <typename IntOp, typename RealOp>
Value numeric_binop(const char* name, const Value& a, const Value& b,
                    IntOp int_op, RealOp real_op) {
  if (a.is_int() && b.is_int()) return int_op(a.as_int(), b.as_int());
  if (a.is_numeric() && b.is_numeric()) return real_op(a.to_real(), b.to_real());
  kind_error(name, a, b);
}

}  // namespace

Value add(const Value& a, const Value& b) {
  if (a.is_str() && b.is_str()) return Value(a.as_str() + b.as_str());
  return numeric_binop(
      "add", a, b,
      [](std::int64_t x, std::int64_t y) {
        return Value(wrapping_add(x, y));
      },
      [](double x, double y) { return Value(x + y); });
}

Value sub(const Value& a, const Value& b) {
  return numeric_binop(
      "sub", a, b,
      [](std::int64_t x, std::int64_t y) {
        return Value(wrapping_sub(x, y));
      },
      [](double x, double y) { return Value(x - y); });
}

Value mul(const Value& a, const Value& b) {
  return numeric_binop(
      "mul", a, b,
      [](std::int64_t x, std::int64_t y) {
        return Value(wrapping_mul(x, y));
      },
      [](double x, double y) { return Value(x * y); });
}

Value div(const Value& a, const Value& b) {
  return numeric_binop(
      "div", a, b,
      [](std::int64_t x, std::int64_t y) {
        if (y == 0) throw TypeError("integer division by zero");
        return Value(y == -1 ? wrapping_neg(x) : x / y);
      },
      [](double x, double y) {
        if (y == 0.0) throw TypeError("real division by zero");
        return Value(x / y);
      });
}

Value mod(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) {
    const std::int64_t y = b.as_int();
    if (y == 0) throw TypeError("mod by zero");
    return Value(y == -1 ? std::int64_t{0} : a.as_int() % y);
  }
  kind_error("mod", a, b);
}

Value neg(const Value& a) {
  if (a.is_int()) return Value(wrapping_neg(a.as_int()));
  if (a.is_real()) return Value(-a.as_real());
  kind_error("neg", a);
}

namespace {

/// Shared ordering core: returns -1/0/+1, or throws on incomparable kinds.
int compare(const char* name, const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.to_real();
    const double y = b.to_real();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a.is_str() && b.is_str()) {
    return a.as_str().compare(b.as_str()) < 0   ? -1
           : a.as_str().compare(b.as_str()) > 0 ? 1
                                                : 0;
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  kind_error(name, a, b);
}

}  // namespace

Value cmp_lt(const Value& a, const Value& b) { return Value(compare("lt", a, b) < 0); }
Value cmp_le(const Value& a, const Value& b) { return Value(compare("le", a, b) <= 0); }
Value cmp_gt(const Value& a, const Value& b) { return Value(compare("gt", a, b) > 0); }
Value cmp_ge(const Value& a, const Value& b) { return Value(compare("ge", a, b) >= 0); }

Value cmp_eq(const Value& a, const Value& b) {
  // Numeric cross-kind equality compares by value (1 == 1.0) so conditions in
  // converted programs behave like the paper's untyped examples; other kinds
  // use structural equality.
  if (a.is_numeric() && b.is_numeric()) return Value(a.to_real() == b.to_real());
  if (a.kind() != b.kind()) return Value(false);
  return Value(a == b);
}

Value cmp_ne(const Value& a, const Value& b) {
  return Value(!cmp_eq(a, b).as_bool());
}

Value logic_and(const Value& a, const Value& b) {
  return Value(a.truthy() && b.truthy());
}

Value logic_or(const Value& a, const Value& b) {
  return Value(a.truthy() || b.truthy());
}

Value logic_not(const Value& a) { return Value(!a.truthy()); }

}  // namespace gammaflow
