#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/perturb.h"
#include "common/status.h"

namespace tsg {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) {
      num_threads = 1;
    }
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  TSG_CHECK(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    TSG_CHECK_MSG(!shutting_down_, "submit after shutdown");
    tasks_.push_back(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock lock(mutex_);
  all_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  // One chunked task per worker keeps queue churn low for large n.
  const std::size_t workers = threads_.size();
  std::atomic<std::size_t> next{0};
  const std::size_t chunk = std::max<std::size_t>(1, n / (workers * 8));
  std::atomic<std::size_t> done_tasks{0};
  const std::size_t num_tasks = std::min(workers, n);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  // Determinism-harness hook: under schedule perturbation, dispatch indices
  // in a seeded shuffled order instead of 0..n-1 so each run assigns work
  // to workers differently. Empty order = identity (the normal path).
  std::vector<std::size_t> order;
  if (check::perturbEnabled()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
      const auto ra = check::perturbRank(a);
      const auto rb = check::perturbRank(b);
      return ra != rb ? ra < rb : a < b;
    });
  }
  for (std::size_t t = 0; t < num_tasks; ++t) {
    submit([&] {
      while (true) {
        const std::size_t start = next.fetch_add(chunk);
        if (start >= n) {
          break;
        }
        const std::size_t end = std::min(n, start + chunk);
        for (std::size_t i = start; i < end; ++i) {
          fn(order.empty() ? i : order[i]);
        }
      }
      if (done_tasks.fetch_add(1) + 1 == num_tasks) {
        std::lock_guard lock(done_mutex);
        done_cv.notify_all();
      }
    });
  }
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return done_tasks.load() == num_tasks; });
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

}  // namespace tsg
