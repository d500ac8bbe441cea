#include "gammaflow/common/label.hpp"

#include <deque>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <unordered_map>

namespace gammaflow {
namespace {

// Reader-mostly interning table. Strings live in a deque so `str()` references
// stay valid across growth; lookups take a shared lock, insertions exclusive.
class LabelTable {
 public:
  static LabelTable& instance() {
    static LabelTable table;
    return table;
  }

  Label::Id intern(std::string_view name) {
    {
      std::shared_lock lock(mutex_);
      if (auto it = ids_.find(std::string(name)); it != ids_.end()) {
        return it->second;
      }
    }
    std::unique_lock lock(mutex_);
    auto [it, inserted] = ids_.try_emplace(std::string(name),
                                           static_cast<Label::Id>(names_.size()));
    if (inserted) names_.emplace_back(it->first);
    return it->second;
  }

  const std::string& name(Label::Id id) const {
    std::shared_lock lock(mutex_);
    return names_[id];
  }

 private:
  LabelTable() {
    names_.emplace_back("");
    ids_.emplace("", 0);
  }

  mutable std::shared_mutex mutex_;
  std::deque<std::string> names_;
  std::unordered_map<std::string, Label::Id> ids_;
};

}  // namespace

Label::Label(std::string_view name) : id_(LabelTable::instance().intern(name)) {}

const std::string& Label::str() const noexcept {
  return LabelTable::instance().name(id_);
}

std::ostream& operator<<(std::ostream& os, Label label) {
  return os << label.str();
}

}  // namespace gammaflow
