// Constant folding + algebraic identity simplification. Used by the
// reduction pass (§III-A3): fusing reactions substitutes producer expressions
// into consumer bodies, and simplify() keeps the fused trees small.
#pragma once

#include <optional>

#include "gammaflow/expr/ast.hpp"
#include "gammaflow/expr/env.hpp"

namespace gammaflow::expr {

/// Folds constant subtrees (evaluating them) and applies safe identities
/// (x+0, x*1, `true and e` when e is already a Bool, ...). Never changes
/// semantics: subtrees that would throw at runtime (e.g. 1/0) are left
/// intact.
[[nodiscard]] ExprPtr simplify(const ExprPtr& e);

/// Substitutes variables by expressions: every Var named in `subst` is
/// replaced by the bound tree. Used by reaction fusion.
[[nodiscard]] ExprPtr substitute(
    const ExprPtr& e,
    const std::vector<std::pair<std::string, ExprPtr>>& subst);

/// Truth value of `e` when it provably folds to a constant under simplify():
/// true/false for a literal with defined truthiness, nullopt otherwise
/// (free variables, or a literal whose truthiness would throw at runtime).
/// The optimizer's dead-reaction check and the constant-condition lint both
/// key off this.
[[nodiscard]] std::optional<bool> constant_truth(const ExprPtr& e);

}  // namespace gammaflow::expr
