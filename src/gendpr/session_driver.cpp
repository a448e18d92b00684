#include "gendpr/session_driver.hpp"

#include <utility>
#include <vector>

namespace gendpr::core {

using Clock = ProtocolSession::Clock;

SessionDriver::SessionDriver(net::EventLoop& loop, net::Hub& hub,
                             ProtocolSession& session)
    : loop_(&loop), hub_(&hub), session_(&session) {
  hub_->set_frame_handler([this](net::NodeId from, common::BytesView payload) {
    if (from == net::kNoNode) return;
    // Zero-copy delivery: the view aliases the hub's receive buffer; the
    // session either consumes it before returning or copies it into its
    // input queue.
    session_->on_frame(from - 1, payload, Clock::now());
    pump();
  });
  hub_->set_peer_lost_handler([this](net::NodeId peer) { on_peer_lost(peer); });
  hub_->set_backpressure_handler([this](net::NodeId peer, bool paused) {
    if (paused) {
      paused_peers_.insert(peer);
      return;
    }
    paused_peers_.erase(peer);
    // Last paused connection drained: deliver the withheld flush
    // acknowledgement so the session resumes from its send point.
    if (stall_pending_ && paused_peers_.empty()) {
      stall_pending_ = false;
      session_->on_sends_complete(std::move(stalled_failures_), Clock::now());
      stalled_failures_.clear();
      pump();
    }
  });
}

SessionDriver::~SessionDriver() {
  if (deadline_timer_.has_value()) loop_->cancel_timer(*deadline_timer_);
  hub_->set_frame_handler(nullptr);
  hub_->set_peer_lost_handler(nullptr);
  hub_->set_backpressure_handler(nullptr);
}

void SessionDriver::start() {
  session_->start(Clock::now());
  pump();
}

void SessionDriver::close() {
  // A session stalled at its flush point is suspended waiting for the send
  // acknowledgement, not for transport events — release it first so the
  // closed notification lands on a session that can observe it.
  if (stall_pending_) {
    stall_pending_ = false;
    paused_peers_.clear();
    session_->on_sends_complete(std::move(stalled_failures_), Clock::now());
    stalled_failures_.clear();
  }
  session_->on_transport_closed(Clock::now());
  pump();
}

void SessionDriver::on_peer_lost(net::NodeId peer) {
  if (peer == net::kNoNode) return;
  // Hubs release a dying connection's pause before reporting the loss, so
  // this erase is normally a no-op; kept as a belt-and-braces guard against
  // a stall on a peer that no longer exists.
  paused_peers_.erase(peer);
  if (stall_pending_ && paused_peers_.empty()) {
    stall_pending_ = false;
    session_->on_sends_complete(std::move(stalled_failures_), Clock::now());
    stalled_failures_.clear();
  }
  session_->on_peer_lost(peer - 1, Clock::now());
  pump();
}

void SessionDriver::pump() {
  // Reentrancy guard: hub_->send inside the loop below can synchronously
  // tear a connection down and fire the peer-lost handler, which calls
  // pump() again. The inner call must not acknowledge the flush the outer
  // one is still collecting failures for — the loss is already recorded in
  // the session, so the outer loop picks it up.
  if (pumping_) return;
  pumping_ = true;
  bool running = true;
  while (running) {
    switch (session_->wants()) {
      case SessionWants::send: {
        std::vector<SendFailure> failures;
        for (OutFrame& frame : session_->take_output()) {
          const common::Status sent =
              hub_->send(node_id_of(frame.to_gdo), std::move(frame.payload));
          if (!sent.ok()) {
            failures.push_back(SendFailure{frame.to_gdo, sent.error()});
          }
        }
        if (!paused_peers_.empty()) {
          // Some connection sits above its watermark: withhold the
          // acknowledgement, leaving the session suspended at this flush.
          // The backpressure resume delivers it once the queues drain, so
          // a slow peer bounds this session's queue growth to one batch
          // past the high watermark — and stalls nobody else.
          stall_pending_ = true;
          stalled_failures_ = std::move(failures);
          stalled_flushes_ += 1;
          running = false;
          break;
        }
        session_->on_sends_complete(std::move(failures), Clock::now());
        break;
      }
      case SessionWants::recv:
        rearm_deadline();
        running = false;
        break;
      case SessionWants::done:
      case SessionWants::failed:
        if (deadline_timer_.has_value()) {
          loop_->cancel_timer(*deadline_timer_);
          deadline_timer_.reset();
        }
        if (!notified_ && on_finished_) {
          notified_ = true;
          on_finished_();
        }
        running = false;
        break;
      case SessionWants::idle:
        running = false;
        break;
    }
  }
  pumping_ = false;
}

void SessionDriver::rearm_deadline() {
  if (deadline_timer_.has_value()) {
    loop_->cancel_timer(*deadline_timer_);
    deadline_timer_.reset();
  }
  const auto deadline = session_->next_deadline();
  if (!deadline.has_value()) return;
  deadline_timer_ = loop_->add_timer(*deadline, [this] {
    deadline_timer_.reset();
    session_->on_tick(Clock::now());
    pump();
  });
}

}  // namespace gendpr::core
