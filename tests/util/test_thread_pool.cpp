#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace u = drowsy::util;

TEST(ThreadPool, DestructionDrainsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    u::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ThreadCountDefaultsToAtLeastOne) {
  u::ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  u::ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  u::parallel_for(pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForZeroIterations) {
  u::ThreadPool pool(2);
  bool touched = false;
  u::parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForSingleIteration) {
  u::ThreadPool pool(2);
  int value = 0;
  u::parallel_for(pool, 1, [&](std::size_t i) { value = static_cast<int>(i) + 41; });
  EXPECT_EQ(value, 41);
}

TEST(ThreadPool, ParallelForSumMatchesSerial) {
  u::ThreadPool pool(3);
  const std::size_t n = 5000;
  std::vector<long> out(n, 0);
  u::parallel_for(pool, n, [&](std::size_t i) { out[i] = static_cast<long>(i) * 3; });
  long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 3L * (n - 1) * n / 2);
}

TEST(ThreadPool, TasksSubmittedFromTasks) {
  std::atomic<int> counter{0};
  {
    u::ThreadPool pool(2);
    pool.submit([&] {
      for (int i = 0; i < 10; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  EXPECT_EQ(&u::default_pool(), &u::default_pool());
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  u::ThreadPool pool(4);
  EXPECT_THROW(
      u::parallel_for(pool, 100,
                      [](std::size_t i) {
                        if (i == 37) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForExceptionMessageSurvives) {
  u::ThreadPool pool(2);
  try {
    u::parallel_for(pool, 10, [](std::size_t) { throw std::runtime_error("task failed"); });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
}

TEST(ThreadPool, ParallelForSkipsRemainingWorkAfterFailure) {
  u::ThreadPool pool(1);  // one worker: chunks run sequentially
  std::atomic<int> ran{0};
  EXPECT_THROW(u::parallel_for(pool, 10000,
                               [&](std::size_t) {
                                 ran.fetch_add(1);
                                 throw std::runtime_error("first");
                               }),
               std::runtime_error);
  // With a single worker, the failure cancels iterations not yet started.
  EXPECT_LT(ran.load(), 10000);
}

TEST(ThreadPool, PoolUsableAfterParallelForException) {
  u::ThreadPool pool(2);
  EXPECT_THROW(u::parallel_for(pool, 4, [](std::size_t) { throw 1; }), int);
  std::atomic<int> counter{0};
  u::parallel_for(pool, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}
