// Nonblocking TCP endpoint driven by an EventLoop (readiness model): the
// federation's one socket transport.
//
// EpollHub is a callback front-end for a single-threaded epoll loop: frames
// arrive through set_frame_handler, connection losses through
// set_peer_lost_handler, and send() encodes each payload into one whole frame
// on a per-connection write queue flushed with gathered writes (one sendmsg
// batch coalesces many small frames) as EPOLLOUT allows. The queue has no
// watermark: a peer that does not read holds back only its own connection
// (see net/hub.hpp). Dialing is nonblocking with timer-driven, jittered
// exponential backoff, and frames sent while a dial is still in flight are
// buffered and flushed in order once it completes — so any number of GDO
// endpoints (and their protocol sessions) can share one thread. Every
// connection speaks the frame format of wire/frame.hpp, opening with the
// dialer's hello; an inbound connection whose first frame is anything else
// is dropped.
//
// Threading: everything here, handlers included, runs on the loop thread.
// No locks, no atomics — the event loop is the serialization point.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "net/event_loop.hpp"
#include "net/hub.hpp"
#include "wire/frame.hpp"

namespace gendpr::net {

class EpollHub : public Hub {
 public:
  /// Binds a listening socket on 127.0.0.1:port (port 0 = ephemeral; see
  /// port()) for node `self` and accepts peer connections on `loop`. The
  /// loop must outlive the hub.
  static common::Result<std::unique_ptr<EpollHub>> create(EventLoop& loop,
                                                          NodeId self,
                                                          std::uint16_t port);

  ~EpollHub() override;

  void connect_peer(NodeId peer, const std::string& host, std::uint16_t port,
                    DialOptions options) override;
  using Hub::connect_peer;

  common::Status send(NodeId to, common::Bytes payload) override;

  bool is_connected(NodeId peer) const override;

 private:
  /// One TCP connection (inbound or dialed). Registered as the fd's
  /// IoHandler; all state is loop-thread-only.
  struct Conn : EventLoop::IoHandler {
    Conn(EpollHub* owner, int conn_fd) : hub(owner), fd(conn_fd) {}
    void on_ready(std::uint32_t events) override;

    EpollHub* hub;
    int fd;
    NodeId peer = kNoNode;     // known after dial / after inbound hello
    bool connecting = false;   // dial awaiting EPOLLOUT + SO_ERROR check
    bool awaiting_hello = false;  // inbound: first frame must be the hello
    wire::FrameDecoder decoder;
    std::deque<common::Bytes> write_queue;  // whole frames, header included
    std::size_t write_offset = 0;  // bytes of the front frame already written
    std::uint32_t watched_events = 0;
  };

  /// The listening socket's IoHandler.
  struct Acceptor : EventLoop::IoHandler {
    explicit Acceptor(EpollHub* owner) : hub(owner) {}
    void on_ready(std::uint32_t events) override;
    EpollHub* hub;
  };

  /// An in-flight dial: retry schedule plus frames queued before
  /// establishment.
  struct Dial {
    std::string host;
    std::uint16_t port = 0;
    int attempts_left = 0;
    std::chrono::milliseconds backoff{0};
    /// Frames queued before the connection exists; flushed after the
    /// hello, or dropped (and counted) when the dial permanently fails.
    std::deque<common::Bytes> pending;
    std::optional<EventLoop::TimerId> retry_timer;
  };

  EpollHub(EventLoop& loop, NodeId self, int listen_fd, std::uint16_t port);

  void on_acceptable();
  void on_conn_ready(const std::shared_ptr<Conn>& conn, std::uint32_t events);
  void on_dial_writable(const std::shared_ptr<Conn>& conn);
  void read_frames(const std::shared_ptr<Conn>& conn);
  void flush_writes(const std::shared_ptr<Conn>& conn);
  void update_events(const std::shared_ptr<Conn>& conn);
  /// Tears the connection down; established peers are reported lost.
  void drop_conn(const std::shared_ptr<Conn>& conn);
  void attempt_dial(NodeId peer);
  void dial_attempt_failed(NodeId peer);
  /// Dial completed: send the hello, flush frames queued during the dial.
  void finish_dial(NodeId peer, const std::shared_ptr<Conn>& conn);
  void register_established(NodeId peer, const std::shared_ptr<Conn>& conn);
  void report_peer_lost(NodeId peer);

  EventLoop* loop_;
  int listen_fd_;
  std::map<int, std::shared_ptr<Conn>> conns_;   // every live fd
  std::map<NodeId, std::shared_ptr<Conn>> peers_;  // established only
  std::map<NodeId, Dial> dials_;
  std::set<NodeId> lost_peers_;
};

}  // namespace gendpr::net
