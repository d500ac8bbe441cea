// Unbounded multi-producer single-consumer queue: the PE token inboxes of the
// parallel dataflow engine. It is mutex based; on this workload the hot path
// is the matching store, not the queue.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace gammaflow {

template <typename T>
class MpscQueue {
 public:
  void push(T item) {
    std::lock_guard lock(mutex_);
    items_.push_back(std::move(item));
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::deque<T> items_;
};

}  // namespace gammaflow
