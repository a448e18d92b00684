// Fixed-size thread pool.
//
// A federated study owns one. It builds every GDO's bit planes in parallel
// (SNP blocks split across the workers), then the coordinator runs on it
// the LD phase's association p-values (blocks of ranks of every
// combination) and the LR selections: the C(G, G-f) combinations side by
// side inside the leader enclave (paper §5.6: "can be efficiently
// conducted in parallel inside the leader enclave"), or a single
// combination's gap pass.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace gendpr::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using ResultT = std::invoke_result_t<Fn>;
    // The task is counted inside the packaged task, so the counters include
    // it before its future is fulfilled.
    auto task = std::make_shared<std::packaged_task<ResultT()>>(
        [this, body = std::forward<Fn>(fn)]() mutable -> ResultT {
          const TaskTimer timer(*this);
          return body();
        });
    std::future<ResultT> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs `fn(i)` for i in [0, count) across the pool and blocks until all
  /// iterations complete. Exceptions from iterations propagate (first one).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// --- Task accounting (observability) ---
  /// Tasks that finished executing (including ones that threw).
  std::uint64_t tasks_completed() const noexcept {
    return tasks_completed_.load(std::memory_order_relaxed);
  }
  /// Cumulative wall time spent inside task bodies, in milliseconds. Workers
  /// run concurrently, so this can exceed the pool's lifetime wall clock.
  double task_wall_ms() const noexcept {
    return static_cast<double>(
               task_nanos_.load(std::memory_order_relaxed)) /
           1e6;
  }

 private:
  /// Adds one task and its wall time to the counters when it leaves scope,
  /// by return or by exception.
  class TaskTimer {
   public:
    explicit TaskTimer(ThreadPool& pool) noexcept
        : pool_(pool), start_(std::chrono::steady_clock::now()) {}
    ~TaskTimer();
    TaskTimer(const TaskTimer&) = delete;
    TaskTimer& operator=(const TaskTimer&) = delete;

   private:
    ThreadPool& pool_;
    std::chrono::steady_clock::time_point start_;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> tasks_completed_{0};
  std::atomic<std::uint64_t> task_nanos_{0};
};

}  // namespace gendpr::common
