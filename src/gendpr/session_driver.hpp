// The host driver of the sans-IO protocol sessions.
//
// A SessionDriver binds one ProtocolSession to one net::Hub (in-memory or
// epoll) on a shared EventLoop: hub frames become session on_frame events,
// hub losses become on_peer_lost, the session's recv deadline is mirrored
// into a loop timer that fires on_tick, and every wants()==send flush is
// handed to the hub.
//
// Write-side backpressure: when the hub reports a connection above its high
// watermark, the driver withholds the on_sends_complete acknowledgement —
// the session stays suspended at its flush point and produces nothing more
// until the hub drains below the low watermark. Only this session stalls;
// every other session on the loop keeps running, so a slow peer can never
// head-of-line-block the federation. Any number of drivers (a whole
// federation) can share one loop thread, or each can get a loop of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "gendpr/session.hpp"
#include "net/event_loop.hpp"
#include "net/hub.hpp"

namespace gendpr::core {

class SessionDriver {
 public:
  /// Binds `session` to `hub` on `loop`; all three must outlive the driver.
  /// The hub's frame/peer-lost/backpressure handlers are claimed by this
  /// driver.
  SessionDriver(net::EventLoop& loop, net::Hub& hub, ProtocolSession& session);
  ~SessionDriver();

  SessionDriver(const SessionDriver&) = delete;
  SessionDriver& operator=(const SessionDriver&) = delete;

  /// Invoked (once) on the loop thread when the session reaches done or
  /// failed. Set before start().
  void set_on_finished(std::function<void()> on_finished) {
    on_finished_ = std::move(on_finished);
  }

  /// Starts the session and pumps it to its first suspension.
  void start();

  /// Forces the session's transport closed (e.g. loop shutdown): the
  /// current and all later recv waits resume with a closed event.
  void close();

  bool finished() const noexcept {
    return session_->wants() == SessionWants::done ||
           session_->wants() == SessionWants::failed;
  }

  /// Number of send flushes whose acknowledgement was withheld because a
  /// peer connection sat above its watermark (backpressure stalls).
  std::uint64_t stalled_flushes() const noexcept { return stalled_flushes_; }

 private:
  void pump();
  void rearm_deadline();

  net::EventLoop* loop_;
  net::Hub* hub_;
  ProtocolSession* session_;
  std::optional<net::EventLoop::TimerId> deadline_timer_;
  std::function<void()> on_finished_;
  std::set<net::NodeId> paused_peers_;
  /// Failures of the flush whose acknowledgement is deferred until every
  /// paused peer resumes (meaningful only while stall_pending_).
  std::vector<SendFailure> stalled_failures_;
  bool stall_pending_ = false;
  std::uint64_t stalled_flushes_ = 0;
  bool notified_ = false;
  bool pumping_ = false;
};

}  // namespace gendpr::core
