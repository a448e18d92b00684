#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

namespace gendpr::net {

using common::Errc;
using common::make_error;
using common::Status;

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      ::close(wake_fd_);
      wake_fd_ = -1;
    }
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::watch(int fd, std::uint32_t events,
                        std::shared_ptr<IoHandler> handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return make_error(Errc::io_error,
                      std::string("epoll_ctl add: ") + std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
  return Status::success();
}

Status EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return make_error(Errc::io_error,
                      std::string("epoll_ctl mod: ") + std::strerror(errno));
  }
  return Status::success();
}

void EventLoop::unwatch(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

EventLoop::TimerId EventLoop::add_timer(TimePoint when,
                                        std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  timers_.emplace(when, Timer{id, std::move(fn)});
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.id == id) {
      timers_.erase(it);
      return;
    }
  }
}

void EventLoop::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_posted_tasks() {
  // Swap under the lock, run outside it: a task may post again (even to
  // this loop) without deadlocking. Tasks posted mid-drain run next batch.
  std::deque<std::function<void()>> batch;
  {
    const std::lock_guard<std::mutex> lock(posted_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

int EventLoop::wait_timeout_ms(std::chrono::milliseconds max_wait) const {
  if (timers_.empty()) {
    return max_wait.count() < 0 ? -1 : static_cast<int>(max_wait.count());
  }
  const auto remaining = timers_.begin()->first - Clock::now();
  if (remaining <= Clock::duration::zero()) return 0;
  // Ceil so the wait never wakes before the timer is actually due.
  auto ms = std::chrono::ceil<std::chrono::milliseconds>(remaining);
  if (max_wait.count() >= 0 && ms > max_wait) ms = max_wait;
  return static_cast<int>(ms.count());
}

void EventLoop::run_due_timers() {
  const TimePoint now = Clock::now();
  // Pop due timers one at a time: a timer callback may add or cancel other
  // timers, so iterators must be re-fetched after every call.
  for (;;) {
    auto it = timers_.begin();
    if (it == timers_.end() || it->first > now) break;
    std::function<void()> fn = std::move(it->second.fn);
    timers_.erase(it);
    fn();
  }
}

void EventLoop::poll_once(std::chrono::milliseconds max_wait) {
  std::array<epoll_event, 64> events;
  const int n = ::epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()),
                             wait_timeout_ms(max_wait));
  if (n < 0 && errno != EINTR) return;
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof(drained));
      continue;  // the post queue is drained below regardless
    }
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // unwatched by an earlier handler
    // Keep the handler alive across the call: it may unwatch its own fd.
    const std::shared_ptr<IoHandler> handler = it->second;
    handler->on_ready(events[static_cast<std::size_t>(i)].events);
  }
  run_posted_tasks();
  run_due_timers();
}

void EventLoop::run_until(const std::function<bool()>& done) {
  while (!done()) {
    if (handlers_.empty() && timers_.empty()) {
      // Nothing watched and no timers: only a cross-thread post could wake
      // us, and those drain here before we give up on the loop. A task may
      // post further tasks mid-drain; those keep the loop alive too.
      run_posted_tasks();
      bool more_posted;
      {
        const std::lock_guard<std::mutex> lock(posted_mutex_);
        more_posted = !posted_.empty();
      }
      if (done() || (handlers_.empty() && timers_.empty() && !more_posted)) {
        return;
      }
      continue;
    }
    poll_once(std::chrono::milliseconds{-1});
  }
}

}  // namespace gendpr::net
