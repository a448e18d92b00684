#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gendpr::common {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SubmitManyTasks) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroCount) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForSingleIteration) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::logic_error("bad");
                                 }),
               std::logic_error);
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForMoreWorkThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(10000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2);
}

TEST(ThreadPoolTest, CountersIncludeEveryTaskWhenParallelForReturns) {
  // A task is counted before its future is fulfilled, so the counters read
  // right after parallel_for returns already include all of its lanes.
  ThreadPool pool(4);
  std::uint64_t expected = 0;
  double last_wall_ms = 0.0;
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(pool.size(), [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    });
    expected += pool.size();
    ASSERT_EQ(pool.tasks_completed(), expected) << "round " << round;
    ASSERT_GT(pool.task_wall_ms(), last_wall_ms) << "round " << round;
    last_wall_ms = pool.task_wall_ms();
  }
}

}  // namespace
}  // namespace gendpr::common
