// StealDeque — the per-worker task deque behind runtime/Cluster's
// work-stealing wave phases.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

namespace tsg {

// A work-stealing deque: the owning worker pushes and pops at the bottom
// (LIFO, cache-warm), thieves steal from the top (FIFO, oldest task first —
// the one the owner is least likely to touch soon). Mutex-based: the
// scheduler's tasks are whole (partition, superstep) units, coarse enough
// that lock cost is noise next to task cost, and a mutex keeps the deque
// trivially correct under TSan.
template <typename T>
class StealDeque {
 public:
  void pushBottom(T item) {
    std::lock_guard lock(mutex_);
    items_.push_back(std::move(item));
  }

  // Owner-side pop (newest task).
  std::optional<T> popBottom() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.back());
    items_.pop_back();
    return item;
  }

  // Thief-side steal (oldest task).
  std::optional<T> stealTop() {
    std::lock_guard lock(mutex_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  [[nodiscard]] bool empty() const {
    std::lock_guard lock(mutex_);
    return items_.empty();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

  void clear() {
    std::lock_guard lock(mutex_);
    items_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::deque<T> items_;
};

}  // namespace tsg
