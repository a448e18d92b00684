// The host driver of the sans-IO protocol sessions.
//
// A SessionDriver binds one ProtocolSession to one net::Hub (in-memory or
// epoll) on a shared EventLoop: hub frames become session on_frame events,
// hub losses become on_peer_lost, the session's recv deadline is mirrored
// into a loop timer that fires on_tick, and after every event the frames
// the session queued go to the hub; a frame the hub refuses is reported
// back as on_peer_lost. The drivers of a whole federation share one loop on
// the calling thread.
#pragma once

#include <functional>
#include <optional>

#include "gendpr/session.hpp"
#include "net/event_loop.hpp"
#include "net/hub.hpp"

namespace gendpr::core {

class SessionDriver {
 public:
  /// Binds `session` to `hub` on `loop`; all three must outlive the driver.
  /// The hub's frame and peer-lost handlers are claimed by this driver.
  SessionDriver(net::EventLoop& loop, net::Hub& hub, ProtocolSession& session);
  ~SessionDriver();

  SessionDriver(const SessionDriver&) = delete;
  SessionDriver& operator=(const SessionDriver&) = delete;

  /// Invoked (once) from the loop when the session reaches done or
  /// failed. Set before start().
  void set_on_finished(std::function<void()> on_finished) {
    on_finished_ = std::move(on_finished);
  }

  /// Starts the session and pumps it to its first suspension.
  void start();

  /// Reports peer `peer` gone, exactly as the hub reports a dropped
  /// connection (the federation runner uses it when a session's peer fails
  /// while its hub stays up).
  void on_peer_lost(net::NodeId peer);

  bool finished() const noexcept {
    return session_->wants() == SessionWants::done ||
           session_->wants() == SessionWants::failed;
  }

 private:
  void pump();
  void rearm_deadline();

  net::EventLoop* loop_;
  net::Hub* hub_;
  ProtocolSession* session_;
  std::optional<net::EventLoop::TimerId> deadline_timer_;
  std::function<void()> on_finished_;
  bool notified_ = false;
  bool pumping_ = false;
};

}  // namespace gendpr::core
