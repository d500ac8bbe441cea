#include "gammaflow/gamma/pattern.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace gammaflow::gamma {

bool PatternField::match(const Value& field, expr::Env& env) const {
  if (!is_binder_) return field == value_;
  if (const Value* bound = env.find(name_)) return field == *bound;
  env.bind(name_, field);
  return true;
}

bool Pattern::match(const Element& e, expr::Env& env) const {
  if (e.arity() != fields_.size()) return false;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (!fields_[i].match(e.field(i), env)) return false;
  }
  return true;
}

std::optional<std::size_t> Pattern::key_field() const noexcept {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (!fields_[i].is_binder()) return i;
  }
  return std::nullopt;
}

std::vector<std::string> Pattern::binders() const {
  std::vector<std::string> names;
  for (const PatternField& f : fields_) {
    if (f.is_binder() &&
        std::find(names.begin(), names.end(), f.name()) == names.end()) {
      names.push_back(f.name());
    }
  }
  return names;
}

std::string Pattern::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Pattern& p) {
  // Bare single binder prints without brackets (classic Gamma style).
  if (p.arity() == 1 && p.fields()[0].is_binder()) {
    return os << p.fields()[0].name();
  }
  os << '[';
  for (std::size_t i = 0; i < p.arity(); ++i) {
    if (i > 0) os << ", ";
    const PatternField& f = p.fields()[i];
    if (f.is_binder()) {
      os << f.name();
    } else {
      os << f.value();
    }
  }
  return os << ']';
}

}  // namespace gammaflow::gamma
