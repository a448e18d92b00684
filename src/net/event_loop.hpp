// Single-threaded epoll event loop.
//
// One EventLoop drives any number of fds, timers and posted tasks on the
// caller's thread: handlers registered with watch() run when their fd is
// ready, timers run when their due time passes, posted tasks run on the
// next dispatch, and run_until() dispatches all three until a predicate
// says the work is done. Every call must come from the loop's thread,
// which is exactly the execution model the sans-IO sessions want: one
// thread, many sessions, no data races by construction.
//
// post() defers work to the loop instead of running it inside the caller.
// MemoryHub delivers frames this way, so no frame handler runs inside a
// send(), and the federation runner hands a member's failure to the
// leader's driver this way, outside the member's own dispatch.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "common/error.hpp"

namespace gendpr::net {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;
  using TimerId = std::uint64_t;

  /// Readiness callback for a watched fd. `events` is the epoll event mask
  /// (EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP bits).
  class IoHandler {
   public:
    virtual ~IoHandler() = default;
    virtual void on_ready(std::uint32_t events) = 0;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  bool valid() const noexcept { return epoll_fd_ >= 0; }

  /// Registers `fd` for `events`; the handler is kept alive by the loop
  /// while watched (and through its own dispatch even if it unwatches
  /// itself from inside on_ready).
  common::Status watch(int fd, std::uint32_t events,
                       std::shared_ptr<IoHandler> handler);
  /// Changes the event mask of a watched fd.
  common::Status modify(int fd, std::uint32_t events);
  /// Stops watching `fd`. Safe to call from inside the fd's own on_ready.
  void unwatch(int fd);

  /// Runs `fn` once when `when` passes. Timers fire in due order.
  TimerId add_timer(TimePoint when, std::function<void()> fn);
  TimerId add_timer_after(std::chrono::milliseconds delay,
                          std::function<void()> fn) {
    return add_timer(Clock::now() + delay, std::move(fn));
  }
  void cancel_timer(TimerId id);

  /// Queues `fn` to run on the next dispatch, after the ready fds' handlers
  /// and in post order. A task posted while the queue drains runs on the
  /// dispatch after. While a task is queued, poll_once does not block.
  void post(std::function<void()> fn);

  /// Dispatches fd events, posted tasks and timers until `done()` returns
  /// true (checked after every dispatch batch) or nothing is left that
  /// could ever wake the loop (no watched fds, no timers, no queued tasks).
  void run_until(const std::function<bool()>& done);

  /// Runs at most one epoll_wait batch with the given cap on blocking time
  /// (none while a task is queued; negative means no cap).
  void poll_once(std::chrono::milliseconds max_wait);

 private:
  int wait_timeout_ms(std::chrono::milliseconds max_wait) const;
  void run_due_timers();
  void run_posted_tasks();

  int epoll_fd_ = -1;
  std::map<int, std::shared_ptr<IoHandler>> handlers_;
  struct Timer {
    TimerId id;
    std::function<void()> fn;
  };
  std::multimap<TimePoint, Timer> timers_;
  TimerId next_timer_id_ = 1;
  std::deque<std::function<void()>> posted_;
};

}  // namespace gendpr::net
