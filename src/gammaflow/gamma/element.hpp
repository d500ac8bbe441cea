// Multiset element: an n-tuple of Values. The paper uses pairs
// [value, label] for straight-line programs (Fig. 1) and triples
// [value, label, tag] once loops/inctag enter (Fig. 2); classic Gamma
// programs (min element, primes) use bare 1-tuples. Element is a general
// small tuple with convenience accessors for the tagged-triple convention
// used by the translators (field 0 = value, 1 = label, 2 = iteration tag).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gammaflow/common/value.hpp"

namespace gammaflow::gamma {

class Element {
 public:
  Element() = default;
  Element(std::initializer_list<Value> fields) : fields_(fields) {}
  explicit Element(std::vector<Value> fields) : fields_(std::move(fields)) {}

  /// The converter convention: [value, 'label', tag].
  static Element tagged(Value value, std::string_view label, std::int64_t tag) {
    return Element{std::move(value), Value(std::string(label)), Value(tag)};
  }
  /// Fig. 1 convention: [value, 'label'] (no iteration tags yet).
  static Element labeled(Value value, std::string_view label) {
    return Element{std::move(value), Value(std::string(label))};
  }

  [[nodiscard]] std::size_t arity() const noexcept { return fields_.size(); }
  [[nodiscard]] const Value& field(std::size_t i) const { return fields_.at(i); }
  [[nodiscard]] const std::vector<Value>& fields() const noexcept { return fields_; }

  /// Tagged-triple accessors; throw TypeError when the element does not
  /// follow the convention (wrong arity or field kinds).
  [[nodiscard]] const Value& value() const;
  [[nodiscard]] const std::string& label() const;
  [[nodiscard]] std::int64_t tag() const;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t hash() const noexcept;

  friend bool operator==(const Element& a, const Element& b) noexcept {
    return a.fields_ == b.fields_;
  }
  friend bool operator!=(const Element& a, const Element& b) noexcept {
    return !(a == b);
  }
  /// Lexicographic over fields; canonicalizes multisets for comparison.
  friend bool operator<(const Element& a, const Element& b) noexcept {
    return a.fields_ < b.fields_;
  }

 private:
  std::vector<Value> fields_;
};

std::ostream& operator<<(std::ostream& os, const Element& e);

/// Elements laid out flat: every field in reading order, and each element's
/// arity. The element reader fills one (dsl::read_elements) and a Store
/// takes its rows through insert(span<const Value>), so a batch of elements
/// reaches the columns without an Element or a Multiset; a reader that
/// keeps one reuses its capacity from batch to batch.
struct FlatElements {
  std::vector<Value> fields;
  std::vector<std::size_t> arities;

  void clear() noexcept {
    fields.clear();
    arities.clear();
  }
  [[nodiscard]] std::size_t size() const noexcept { return arities.size(); }
  /// Calls f(span<const Value>) on each element's fields, in order.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t at = 0;
    for (const std::size_t n : arities) {
      f(std::span<const Value>(fields.data() + at, n));
      at += n;
    }
  }
};

}  // namespace gammaflow::gamma

template <>
struct std::hash<gammaflow::gamma::Element> {
  std::size_t operator()(const gammaflow::gamma::Element& e) const noexcept {
    return e.hash();
  }
};
