#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

namespace gendpr::net {

using common::Errc;
using common::make_error;
using common::Status;

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

EventLoop::~EventLoop() {
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
  posted_.push_back(std::move(fn));
}

void EventLoop::run_posted_tasks() {
  // Run a swapped-out batch: a task may post again, and those tasks wait
  // for the next dispatch.
  std::deque<std::function<void()>> batch;
  batch.swap(posted_);
  for (auto& fn : batch) fn();
}

int EventLoop::wait_timeout_ms(std::chrono::milliseconds max_wait) const {
  if (!posted_.empty()) return 0;
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
  const int timeout_ms = wait_timeout_ms(max_wait);
  std::array<epoll_event, 64> events;
  int n = 0;
  // With no fd watched, only a timer's wait needs the syscall.
  if (!handlers_.empty() || timeout_ms != 0) {
    n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     timeout_ms);
    if (n < 0 && errno != EINTR) return;
  }
  for (int i = 0; i < n; ++i) {
    auto it = handlers_.find(events[static_cast<std::size_t>(i)].data.fd);
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
    if (handlers_.empty() && timers_.empty() && posted_.empty()) return;
    poll_once(std::chrono::milliseconds{-1});
  }
}

}  // namespace gendpr::net
