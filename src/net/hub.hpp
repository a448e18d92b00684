// The one transport seam of the federation.
//
// A Hub is one GDO endpoint on an EventLoop: it owns the links of that
// node, delivers inbound frames and peer losses through callbacks, and
// queues outbound frames for asynchronous delivery. MemoryHub (in-process,
// no sockets) and EpollHub (readiness-driven TCP) derive from this class,
// so the session driver and the federation runner are written once against
// the seam and never know what carries the bytes.
//
// Write-side backpressure lives here: every connection accounts the bytes
// queued but not yet on the wire, and crossing the high watermark fires the
// backpressure handler with paused=true (resumed at the low watermark).
// Drivers use the pause to stop pulling frames out of their session, so one
// slow peer stalls exactly one session — never the loop, never a sibling.
//
// Threading: everything here, handlers included, runs on the loop thread.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace gendpr::net {

/// Federation-unique node identifier. 0 is reserved as "unassigned".
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;

/// Payload byte counters per directed link, plus totals, for the §7.1
/// bandwidth accounting. Thread-safe.
class TrafficMeter {
 public:
  void record(NodeId from, NodeId to, std::size_t bytes);

  std::uint64_t total_bytes() const;
  std::uint64_t total_messages() const;
  std::uint64_t bytes_sent_by(NodeId node) const;
  std::uint64_t bytes_received_by(NodeId node) const;

  /// One directed link's accumulated volume.
  struct Link {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };

  /// Point-in-time copy of every link, ordered by (from, to). This is how
  /// per-link accounting outlives the meter's owner: run reports snapshot
  /// the links before the transport is torn down.
  std::vector<Link> snapshot() const;

  void reset();

 private:
  struct LinkStats {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::pair<NodeId, NodeId>, LinkStats> links_;
};

class Hub {
 public:
  /// Inbound payloads are views into the hub's receive buffer, valid only
  /// for the duration of the call — sessions decrypt in place (open_to) or
  /// copy before returning.
  using FrameHandler =
      std::function<void(NodeId from, common::BytesView payload)>;
  using PeerLostHandler = std::function<void(NodeId peer)>;
  /// paused=true: the connection to `peer` crossed the high watermark and
  /// the producer should stop queueing. paused=false: drained below the low
  /// watermark (or the connection died), producing may resume.
  using BackpressureHandler = std::function<void(NodeId peer, bool paused)>;

  /// Dial behaviour: attempts spaced by exponential backoff starting at
  /// `initial_backoff` (doubling per retry) with uniform random jitter of
  /// up to half the current backoff, so peers that lost the same hub do not
  /// retry in lockstep and re-stampede it.
  struct DialOptions {
    int max_attempts = 5;
    std::chrono::milliseconds initial_backoff{25};
  };

  /// Per-connection write-queue watermarks, in bytes of encoded frames not
  /// yet written to the socket. high must be > low.
  struct Watermarks {
    std::size_t high = 1u << 20;  // pause above 1 MiB queued
    std::size_t low = 1u << 19;   // resume below 512 KiB
  };

  /// Aggregated backpressure telemetry across every connection of the hub.
  struct BackpressureStats {
    std::uint64_t pauses = 0;
    std::uint64_t resumes = 0;
    std::uint64_t peak_queued_bytes = 0;
  };

  /// Frame-path telemetry.
  struct WireStats {
    std::uint64_t writev_batches = 0;  // gathered sendmsg calls
    std::uint64_t dial_dropped_frames = 0;  // queued on dials that failed
  };

  virtual ~Hub() = default;

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  NodeId self() const noexcept { return self_; }
  /// Listening port (0 for in-memory hubs).
  std::uint16_t port() const noexcept { return port_; }

  /// Delivery callback for every data frame (hellos are consumed here).
  void set_frame_handler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }
  /// Loss callback: fires when an established connection dies or a dial
  /// exhausts its attempts.
  void set_peer_lost_handler(PeerLostHandler handler) {
    peer_lost_handler_ = std::move(handler);
  }
  /// Watermark pause/resume callback (see BackpressureHandler).
  void set_backpressure_handler(BackpressureHandler handler) {
    backpressure_handler_ = std::move(handler);
  }
  /// Replaces the default watermarks. Call before traffic flows.
  void set_watermarks(Watermarks watermarks) { watermarks_ = watermarks; }

  const BackpressureStats& backpressure() const noexcept { return bp_stats_; }
  const WireStats& wire_stats() const noexcept { return wire_stats_; }
  TrafficMeter& meter() noexcept { return meter_; }

  /// Starts a nonblocking dial to a peer hub. Frames sent to `peer` before
  /// the dial completes are buffered and flushed (after the hello) once it
  /// does; if every attempt fails the peer is reported lost. In-memory hubs
  /// ignore the address and link to the peer's registered hub.
  virtual void connect_peer(NodeId peer, const std::string& host,
                            std::uint16_t port, DialOptions options) = 0;
  void connect_peer(NodeId peer, const std::string& host, std::uint16_t port) {
    connect_peer(peer, host, port, DialOptions{});
  }

  /// Enqueues one payload for `to`; the hub takes ownership of the bytes.
  /// Success means accepted for delivery (written as the kernel allows), not
  /// yet on the wire; unknown_peer means there is no live or in-flight
  /// connection to the peer.
  virtual common::Status send(NodeId to, common::Bytes payload) = 0;

  /// True while an established connection to `peer` is registered.
  virtual bool is_connected(NodeId peer) const = 0;

 protected:
  Hub(NodeId self, std::uint16_t port)
      : self_(self),
        port_(port),
        jitter_rng_(std::random_device{}() ^
                    (static_cast<unsigned>(self) << 16)) {}

  /// Backoff with uniform jitter in [backoff, 1.5*backoff): breaks the
  /// deterministic lockstep of peers reconnecting to the same endpoint.
  std::chrono::milliseconds jittered(std::chrono::milliseconds backoff) {
    const auto half = std::max<std::chrono::milliseconds::rep>(
        backoff.count() / 2, 1);
    std::uniform_int_distribution<std::chrono::milliseconds::rep> dist(0,
                                                                       half);
    return backoff + std::chrono::milliseconds(dist(jitter_rng_));
  }

  /// Watermark bookkeeping after a connection's queue grew to `queued`
  /// bytes. `paused` is the connection's pause flag.
  void note_enqueued(NodeId peer, std::size_t queued, bool& paused) {
    if (queued > bp_stats_.peak_queued_bytes) {
      bp_stats_.peak_queued_bytes = queued;
    }
    if (!paused && queued > watermarks_.high) {
      paused = true;
      bp_stats_.pauses += 1;
      if (backpressure_handler_) backpressure_handler_(peer, true);
    }
  }

  /// Watermark bookkeeping after a connection's queue drained to `queued`
  /// bytes.
  void note_drained(NodeId peer, std::size_t queued, bool& paused) {
    if (paused && queued < watermarks_.low) {
      paused = false;
      bp_stats_.resumes += 1;
      if (backpressure_handler_) backpressure_handler_(peer, false);
    }
  }

  /// A dying connection releases its pause so the producer is never left
  /// stalled on a peer that no longer exists (the loss itself is reported
  /// separately).
  void release_pause_on_drop(NodeId peer, bool& paused) {
    if (paused) {
      paused = false;
      bp_stats_.resumes += 1;
      if (backpressure_handler_) backpressure_handler_(peer, false);
    }
  }

  NodeId self_;
  std::uint16_t port_;
  Watermarks watermarks_;
  BackpressureStats bp_stats_;
  WireStats wire_stats_;
  TrafficMeter meter_;
  FrameHandler frame_handler_;
  PeerLostHandler peer_lost_handler_;
  BackpressureHandler backpressure_handler_;
  std::minstd_rand jitter_rng_;
};

}  // namespace gendpr::net
