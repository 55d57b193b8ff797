// A small work-stealing-free thread pool with a parallel_for helper.
//
// Drowsy-DC's per-host model builder updates one idleness model per VM per
// hour; updates are independent, so the builder fans them out across the
// pool (the paper stresses that model maintenance must not add overhead to
// the consolidation system).  Benchmark sweeps also use parallel_for to run
// independent configurations concurrently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace drowsy::util {

/// Fixed-size thread pool.  Tasks are `void()` callables; submit() never
/// blocks (the queue is unbounded).  Destruction drains outstanding tasks.
class ThreadPool {
 public:
  /// Create a pool with `threads` workers (default: hardware concurrency,
  /// at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.  The task must not throw:
  /// an exception escaping a bare submitted task terminates the process
  /// (use parallel_for, which captures and rethrows, for throwing work).
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Run `body(i)` for i in [0, n) across the pool, blocking until all
/// iterations finish.  Iterations are chunked to limit queue churn.
/// Exception-safe: if any iteration throws, the first exception is
/// captured and rethrown on the calling thread after every in-flight
/// chunk has drained; iterations not yet started are skipped.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Process-wide default pool (lazily constructed).
ThreadPool& default_pool();

}  // namespace drowsy::util
