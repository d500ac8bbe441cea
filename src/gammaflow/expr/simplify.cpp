#include "gammaflow/expr/simplify.hpp"

#include "gammaflow/expr/eval.hpp"

namespace gammaflow::expr {
namespace {

bool is_literal(const ExprPtr& e) { return e->kind() == Expr::Kind::Literal; }

bool is_int_literal(const ExprPtr& e, std::int64_t v) {
  return is_literal(e) && e->literal().is_int() && e->literal().as_int() == v;
}

bool is_bool_literal(const ExprPtr& e, bool v) {
  return is_literal(e) && e->literal().is_bool() && e->literal().as_bool() == v;
}

/// True when `e` evaluates to a Bool by construction: a Bool literal, a
/// comparison, `not`, `and` or `or`. `true and e` evaluates to
/// Bool(truthy(e)), so only such an `e` may replace it.
bool is_bool_valued(const ExprPtr& e) {
  switch (e->kind()) {
    case Expr::Kind::Literal: return e->literal().is_bool();
    case Expr::Kind::Var: return false;
    case Expr::Kind::Unary: return e->un_op() == UnOp::Not;
    case Expr::Kind::Binary: return !is_arithmetic(e->bin_op());
  }
  return false;
}

}  // namespace

ExprPtr simplify(const ExprPtr& e) {
  switch (e->kind()) {
    case Expr::Kind::Literal:
    case Expr::Kind::Var:
      return e;
    case Expr::Kind::Unary: {
      ExprPtr operand = simplify(e->operand());
      if (is_literal(operand)) {
        try {
          return Expr::lit(apply(e->un_op(), operand->literal()));
        } catch (const TypeError&) {
          // leave as-is; runtime will report with full context
        }
      }
      // --(-x) => x ; not (not x) => x when x is already a Bool
      if (operand->kind() == Expr::Kind::Unary &&
          operand->un_op() == e->un_op() &&
          (e->un_op() == UnOp::Neg || is_bool_valued(operand->operand()))) {
        return operand->operand();
      }
      return operand == e->operand() ? e : Expr::unary(e->un_op(), std::move(operand));
    }
    case Expr::Kind::Binary: {
      ExprPtr lhs = simplify(e->lhs());
      ExprPtr rhs = simplify(e->rhs());
      if (is_literal(lhs) && is_literal(rhs)) {
        try {
          return Expr::lit(apply(e->bin_op(), lhs->literal(), rhs->literal()));
        } catch (const TypeError&) {
          // fall through: preserve the failing tree for accurate runtime errors
        }
      }
      switch (e->bin_op()) {
        case BinOp::Add:
          if (is_int_literal(lhs, 0)) return rhs;
          if (is_int_literal(rhs, 0)) return lhs;
          break;
        case BinOp::Sub:
          if (is_int_literal(rhs, 0)) return lhs;
          break;
        case BinOp::Mul:
          if (is_int_literal(lhs, 1)) return rhs;
          if (is_int_literal(rhs, 1)) return lhs;
          break;
        case BinOp::Div:
          if (is_int_literal(rhs, 1)) return lhs;
          break;
        case BinOp::And:
          if (is_bool_literal(lhs, true) && is_bool_valued(rhs)) return rhs;
          if (is_bool_literal(rhs, true) && is_bool_valued(lhs)) return lhs;
          if (is_bool_literal(lhs, false)) return Expr::lit(Value(false));
          break;
        case BinOp::Or:
          if (is_bool_literal(lhs, false) && is_bool_valued(rhs)) return rhs;
          if (is_bool_literal(rhs, false) && is_bool_valued(lhs)) return lhs;
          if (is_bool_literal(lhs, true)) return Expr::lit(Value(true));
          break;
        default:
          break;
      }
      if (lhs == e->lhs() && rhs == e->rhs()) return e;
      return Expr::binary(e->bin_op(), std::move(lhs), std::move(rhs));
    }
  }
  return e;
}

std::optional<bool> constant_truth(const ExprPtr& e) {
  const ExprPtr folded = simplify(e);
  if (folded->kind() != Expr::Kind::Literal) return std::nullopt;
  try {
    return folded->literal().truthy();
  } catch (const TypeError&) {
    return std::nullopt;  // would throw at runtime; not a usable constant
  }
}

ExprPtr substitute(const ExprPtr& e,
                   const std::vector<std::pair<std::string, ExprPtr>>& subst) {
  switch (e->kind()) {
    case Expr::Kind::Literal:
      return e;
    case Expr::Kind::Var:
      for (const auto& [name, replacement] : subst) {
        if (name == e->var()) return replacement;
      }
      return e;
    case Expr::Kind::Unary: {
      ExprPtr operand = substitute(e->operand(), subst);
      return operand == e->operand() ? e : Expr::unary(e->un_op(), std::move(operand));
    }
    case Expr::Kind::Binary: {
      ExprPtr lhs = substitute(e->lhs(), subst);
      ExprPtr rhs = substitute(e->rhs(), subst);
      if (lhs == e->lhs() && rhs == e->rhs()) return e;
      return Expr::binary(e->bin_op(), std::move(lhs), std::move(rhs));
    }
  }
  return e;
}

}  // namespace gammaflow::expr
