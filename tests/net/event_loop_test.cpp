// EventLoop unit tests: timer ordering and cancellation, fd readiness
// dispatch over a pipe, self-unwatch from inside a handler, run_until's
// exhaustion guarantee (no fds + no timers = return, not spin), and post()'s
// ordering contract and its no-block guarantee for queued tasks.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "net/event_loop.hpp"

namespace gendpr::net {
namespace {

using namespace std::chrono_literals;

TEST(EventLoopTest, TimersFireInDueOrder) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  std::vector<int> order;
  const auto now = EventLoop::Clock::now();
  loop.add_timer(now + 30ms, [&] { order.push_back(3); });
  loop.add_timer(now + 10ms, [&] { order.push_back(1); });
  loop.add_timer(now + 20ms, [&] { order.push_back(2); });
  loop.run_until([&] { return order.size() == 3; });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  bool cancelled_fired = false;
  bool kept_fired = false;
  const auto id = loop.add_timer_after(10ms, [&] { cancelled_fired = true; });
  loop.add_timer_after(20ms, [&] { kept_fired = true; });
  loop.cancel_timer(id);
  loop.run_until([&] { return kept_fired; });
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(kept_fired);
}

TEST(EventLoopTest, TimerCallbackMayAddTimers) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 3) loop.add_timer_after(1ms, tick);
  };
  loop.add_timer_after(1ms, tick);
  loop.run_until([&] { return ticks == 3; });
  EXPECT_EQ(ticks, 3);
}

TEST(EventLoopTest, RunUntilReturnsWhenNothingCanWakeIt) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  bool fired = false;
  loop.add_timer_after(1ms, [&] { fired = true; });
  // The predicate never becomes true; the loop must still return once the
  // only timer has fired and nothing else could ever produce an event.
  loop.run_until([] { return false; });
  EXPECT_TRUE(fired);
}

namespace {
struct PipeReader : EventLoop::IoHandler {
  EventLoop* loop = nullptr;
  int fd = -1;
  std::vector<std::uint8_t> received;
  bool unwatch_on_read = false;
  std::function<void()> on_read;

  void on_ready(std::uint32_t events) override {
    if ((events & EPOLLIN) == 0) return;
    std::uint8_t buffer[16];
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    for (ssize_t i = 0; i < n; ++i) received.push_back(buffer[i]);
    if (unwatch_on_read) loop->unwatch(fd);
    if (on_read) on_read();
  }
};
}  // namespace

TEST(EventLoopTest, DispatchesPipeReadiness) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  auto reader = std::make_shared<PipeReader>();
  reader->loop = &loop;
  reader->fd = fds[0];
  ASSERT_TRUE(loop.watch(fds[0], EPOLLIN, reader).ok());
  ASSERT_EQ(::write(fds[1], "ab", 2), 2);
  loop.run_until([&] { return reader->received.size() == 2; });
  EXPECT_EQ(reader->received, (std::vector<std::uint8_t>{'a', 'b'}));
  loop.unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, HandlerMayUnwatchItselfFromOnReady) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  auto reader = std::make_shared<PipeReader>();
  reader->loop = &loop;
  reader->fd = fds[0];
  reader->unwatch_on_read = true;
  ASSERT_TRUE(loop.watch(fds[0], EPOLLIN, reader).ok());
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  // After the self-unwatch nothing is registered: run_until must return on
  // exhaustion rather than wait for the predicate.
  loop.run_until([] { return false; });
  EXPECT_EQ(reader->received.size(), 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, PostedTasksRunInOrder) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  std::vector<int> order;
  loop.post([&] { order.push_back(1); });
  loop.post([&] { order.push_back(2); });
  loop.post([&] { order.push_back(3); });
  loop.run_until([&] { return order.size() == 3; });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, PostedTaskMayPostMore) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 3) loop.post(chain);
  };
  loop.post(chain);
  loop.run_until([&] { return depth == 3; });
  EXPECT_EQ(depth, 3);
}

TEST(EventLoopTest, QueuedTaskKeepsPollOnceFromBlocking) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  // A watched idle pipe and a timer 5 s off that rearms itself: with
  // nothing queued, poll_once with no cap sleeps until that timer. No
  // wakeup fd exists, so a task queued after a dispatch's drain must make
  // the next one return at once; a loop that blocks fails on the clock
  // instead of hanging.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  auto reader = std::make_shared<PipeReader>();
  reader->loop = &loop;
  reader->fd = fds[0];
  ASSERT_TRUE(loop.watch(fds[0], EPOLLIN, reader).ok());
  std::function<void()> backstop = [&] {
    loop.add_timer_after(std::chrono::seconds(5), backstop);
  };
  loop.add_timer_after(std::chrono::seconds(5), backstop);
  const auto start = EventLoop::Clock::now();

  // Timers run after the drain: this timer's task waits for the next poll.
  bool timer_task_ran = false;
  loop.add_timer_after(0ms, [&] { loop.post([&] { timer_task_ran = true; }); });
  loop.poll_once(-1ms);
  EXPECT_FALSE(timer_task_ran);
  loop.poll_once(-1ms);
  EXPECT_TRUE(timer_task_ran);

  // A handler's task runs in its own dispatch; the task it posts in turn
  // waits for the next poll.
  bool inner_ran = false;
  reader->on_read = [&] {
    loop.post([&] { loop.post([&] { inner_ran = true; }); });
  };
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.poll_once(-1ms);
  EXPECT_FALSE(inner_ran);
  loop.poll_once(-1ms);
  EXPECT_TRUE(inner_ran);

  EXPECT_LT(EventLoop::Clock::now() - start, std::chrono::seconds(2));
  loop.unwatch(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace gendpr::net
