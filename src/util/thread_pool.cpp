#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace drowsy::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = pool.thread_count();
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;  // guarded by m
  std::mutex m;
  std::condition_variable cv;
  std::size_t issued = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk_size) {
    const std::size_t end = std::min(begin + chunk_size, n);
    ++issued;
    pool.submit([&, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) {
          if (failed.load(std::memory_order_relaxed)) break;
          body(i);
        }
      } catch (...) {
        std::lock_guard lock(m);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      // Notify under the lock: once `m` is released the caller may see the
      // final count, return, and destroy its stack-local `cv`.
      std::lock_guard lock(m);
      ++done;
      cv.notify_one();
    });
  }
  std::unique_lock lock(m);
  cv.wait(lock, [&] { return done.load() == issued; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace drowsy::util
