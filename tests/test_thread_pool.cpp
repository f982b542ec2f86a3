#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.h"

using landau::exec::ThreadPool;

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int count = 0;
  pool.submit([&count] { ++count; }); // inline, no synchronization needed
  EXPECT_EQ(count, 1);
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 11);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPool, ParallelForRethrowsTaskExceptionOnCaller) {
  // A task throwing on a worker thread must reach the caller instead of
  // terminating the process, and only once every other task has finished.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("task failed");
                                   done.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(done.load(), 7);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}
