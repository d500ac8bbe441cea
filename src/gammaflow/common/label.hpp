// Interned labels. Gamma elements produced by Algorithm 1 carry an edge label
// ("A1", "B12", ...) that reactions match on; interning makes matching an
// integer compare / bucket lookup instead of a string compare. The table is
// process-wide and thread-safe (symbols, like in a compiler), so labels flow
// freely between a dataflow graph and the Gamma program converted from it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace gammaflow {

class Label {
 public:
  using Id = std::uint32_t;

  /// The default-constructed label is the distinguished empty label "".
  Label() noexcept : id_(0) {}

  /// Interns (or finds) `name`. O(1) amortized; thread-safe.
  explicit Label(std::string_view name);

  [[nodiscard]] Id id() const noexcept { return id_; }
  [[nodiscard]] const std::string& str() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return id_ == 0; }

  friend bool operator==(Label a, Label b) noexcept { return a.id_ == b.id_; }
  friend bool operator!=(Label a, Label b) noexcept { return a.id_ != b.id_; }
  /// Orders by interning id (creation order), not lexicographically; stable
  /// within a process which is all canonicalization needs.
  friend bool operator<(Label a, Label b) noexcept { return a.id_ < b.id_; }

 private:
  Id id_;
};

std::ostream& operator<<(std::ostream& os, Label label);

}  // namespace gammaflow

template <>
struct std::hash<gammaflow::Label> {
  std::size_t operator()(gammaflow::Label l) const noexcept {
    return std::hash<gammaflow::Label::Id>{}(l.id());
  }
};
