// Replace-list patterns. A reaction's replace list is a sequence of element
// patterns; each pattern field either BINDS a variable or CONSTRAINS the
// field to a literal. A variable repeated across fields/patterns is an
// equality constraint — this is exactly how the paper's reactions force all
// consumed operands to carry the same iteration tag `v`.
//
//   R16 = replace [id1,'B13',v], [id2,'B15',v] ...
//         ^ binds id1, constrains field1=='B13', binds v; second pattern
//           then REQUIRES its third field to equal the bound v.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gammaflow/common/value.hpp"
#include "gammaflow/expr/env.hpp"
#include "gammaflow/gamma/element.hpp"

namespace gammaflow::gamma {

class PatternField {
 public:
  static PatternField bind(std::string name) {
    PatternField f;
    f.is_binder_ = true;
    f.name_ = std::move(name);
    return f;
  }
  static PatternField literal(Value v) {
    PatternField f;
    f.is_binder_ = false;
    f.value_ = std::move(v);
    return f;
  }

  [[nodiscard]] bool is_binder() const noexcept { return is_binder_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Value& value() const noexcept { return value_; }

  /// Matches one element field, extending `env` (binders) or checking
  /// against it (already-bound names / literals). Returns false on mismatch;
  /// may leave partial bindings in env on failure — callers restart env per
  /// candidate tuple.
  [[nodiscard]] bool match(const Value& field, expr::Env& env) const;

  friend bool operator==(const PatternField& a, const PatternField& b) noexcept {
    return a.is_binder_ == b.is_binder_ && a.name_ == b.name_ &&
           a.value_ == b.value_;
  }

 private:
  bool is_binder_ = true;
  std::string name_;
  Value value_;
};

class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(std::vector<PatternField> fields)
      : fields_(std::move(fields)) {}

  /// Shorthand: a bare single-binder pattern (classic Gamma `replace x, y`).
  static Pattern var(std::string name) {
    return Pattern({PatternField::bind(std::move(name))});
  }
  /// The converter convention [valueVar, 'label', tagVar].
  static Pattern tagged(std::string value_var, std::string label,
                        std::string tag_var) {
    return Pattern({PatternField::bind(std::move(value_var)),
                    PatternField::literal(Value(std::move(label))),
                    PatternField::bind(std::move(tag_var))});
  }
  /// Fig. 1 convention [valueVar, 'label'].
  static Pattern labeled(std::string value_var, std::string label) {
    return Pattern({PatternField::bind(std::move(value_var)),
                    PatternField::literal(Value(std::move(label)))});
  }

  [[nodiscard]] std::size_t arity() const noexcept { return fields_.size(); }
  [[nodiscard]] const std::vector<PatternField>& fields() const noexcept {
    return fields_;
  }

  [[nodiscard]] bool match(const Element& e, expr::Env& env) const;

  /// The index of the first literal-constrained field, if any: the key
  /// constraint, whose literal is fields()[*key_field()].value(). Engines
  /// use it to narrow candidates to an index bucket. Converter patterns
  /// always constrain field 1 (the edge label).
  [[nodiscard]] std::optional<std::size_t> key_field() const noexcept;

  /// All binder names in field order (first occurrence only).
  [[nodiscard]] std::vector<std::string> binders() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Pattern& a, const Pattern& b) noexcept {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<PatternField> fields_;
};

std::ostream& operator<<(std::ostream& os, const Pattern& p);

}  // namespace gammaflow::gamma
