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
    // Zero-copy delivery: the view aliases the hub's receive buffer, and
    // the session consumes it (or drops it) before returning.
    session_->on_frame(from - 1, payload, Clock::now());
    pump();
  });
  hub_->set_peer_lost_handler([this](net::NodeId peer) { on_peer_lost(peer); });
}

SessionDriver::~SessionDriver() {
  if (deadline_timer_.has_value()) loop_->cancel_timer(*deadline_timer_);
  hub_->set_frame_handler(nullptr);
  hub_->set_peer_lost_handler(nullptr);
}

void SessionDriver::start() {
  session_->start(Clock::now());
  pump();
}

void SessionDriver::on_peer_lost(net::NodeId peer) {
  if (peer == net::kNoNode) return;
  session_->on_peer_lost(peer - 1, Clock::now());
  pump();
}

void SessionDriver::pump() {
  // Reentrancy guard: hub_->send below can synchronously tear a connection
  // down and fire the peer-lost handler, which calls pump() again. The loss
  // is recorded in the session by then, and this loop sends whatever the
  // session queued in response.
  if (pumping_) return;
  pumping_ = true;
  for (std::vector<OutFrame> out = session_->take_output(); !out.empty();
       out = session_->take_output()) {
    for (OutFrame& frame : out) {
      // A hub refuses a frame only for a lost peer; the session learns of
      // it the one way it learns of every loss.
      if (!hub_->send(node_id_of(frame.to_gdo), std::move(frame.payload))
               .ok()) {
        session_->on_peer_lost(frame.to_gdo, Clock::now());
      }
    }
  }
  if (session_->wants() == SessionWants::recv) {
    rearm_deadline();
  } else if (finished()) {
    if (deadline_timer_.has_value()) {
      loop_->cancel_timer(*deadline_timer_);
      deadline_timer_.reset();
    }
    if (!notified_ && on_finished_) {
      notified_ = true;
      on_finished_();
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
