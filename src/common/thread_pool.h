// A fixed-size thread pool used for temporal concurrency in the TI-BSP
// engine (independent / eventually dependent patterns) and by generators.
//
// The BSP runtime itself does NOT use this pool: partition workers are
// long-lived dedicated threads (see runtime/cluster.h) because BSP metering
// needs a stable thread-per-partition mapping.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

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

class ThreadPool {
 public:
  // num_threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; runs as soon as a worker is free.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has completed.
  void waitIdle();

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t numThreads() const { return threads_.size(); }

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace tsg
