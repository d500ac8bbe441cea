// InlineVec: a vector that keeps its first N elements in place and moves to
// the heap only past them. The match path's per-fire containers (a match's
// ids and produced values) are this size-bounded in every program the paper
// writes, so with an inline capacity above those sizes a fire allocates
// nothing, while an unusually wide reaction still works.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace gammaflow {

template <typename T, std::size_t N>
class InlineVec {
 public:
  InlineVec() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T* data() noexcept {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const T* data() const noexcept {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data()[i];
  }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data(), size_};
  }

  /// Drops every element. A heap buffer keeps its capacity.
  void clear() noexcept {
    size_ = 0;
    heap_.clear();
  }

  void push_back(T value) {
    if (heap_.empty() && size_ < N) {
      inline_[size_++] = std::move(value);
      return;
    }
    if (heap_.empty()) {
      heap_.reserve(2 * N);
      for (T& v : inline_) heap_.push_back(std::move(v));
    }
    heap_.push_back(std::move(value));
    ++size_;
  }

  /// Grows or shrinks to `n` elements; new elements are value-initialized.
  void resize(std::size_t n) {
    if (heap_.empty() && n <= N) {
      for (std::size_t i = size_; i < n; ++i) inline_[i] = T{};
      size_ = n;
      return;
    }
    if (heap_.empty()) heap_.assign(inline_.begin(), inline_.begin() + size_);
    heap_.resize(n);
    size_ = n;
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;  // all elements once size() has exceeded N
  std::size_t size_ = 0;
};

}  // namespace gammaflow
