#include "net/epoll_hub.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace gendpr::net {

using common::Errc;
using common::make_error;
using common::Status;

namespace {

int make_nonblocking_socket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

void set_nodelay(int fd) {
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
}

/// Frames gathered per write syscall. Caps the iovec array on the stack;
/// deeper queues simply take another batch on the next EPOLLOUT.
constexpr int kWritevBatch = 64;

}  // namespace

common::Result<std::unique_ptr<EpollHub>> EpollHub::create(EventLoop& loop,
                                                           NodeId self,
                                                           std::uint16_t port) {
  const int fd = make_nonblocking_socket();
  if (fd < 0) {
    return make_error(Errc::io_error,
                      std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return make_error(Errc::io_error,
                      std::string("getsockname: ") + std::strerror(errno));
  }
  auto hub = std::unique_ptr<EpollHub>(
      new EpollHub(loop, self, fd, ntohs(addr.sin_port)));
  if (Status s = loop.watch(fd, EPOLLIN,
                            std::make_shared<Acceptor>(hub.get()));
      !s.ok()) {
    return s.error();
  }
  return hub;
}

EpollHub::EpollHub(EventLoop& loop, NodeId self, int listen_fd,
                   std::uint16_t port)
    : Hub(self, port), loop_(&loop), listen_fd_(listen_fd) {}

EpollHub::~EpollHub() {
  for (auto& [peer, dial] : dials_) {
    if (dial.retry_timer.has_value()) loop_->cancel_timer(*dial.retry_timer);
  }
  for (auto& [fd, conn] : conns_) {
    loop_->unwatch(fd);
    ::close(fd);
    conn->fd = -1;
  }
  loop_->unwatch(listen_fd_);
  ::close(listen_fd_);
}

void EpollHub::Acceptor::on_ready(std::uint32_t events) {
  (void)events;
  hub->on_acceptable();
}

void EpollHub::on_acceptable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or error; either way wait for epoll
    set_nodelay(fd);
    auto conn = std::make_shared<Conn>(this, fd);
    conn->awaiting_hello = true;
    conn->watched_events = EPOLLIN;
    if (!loop_->watch(fd, EPOLLIN, conn).ok()) {
      ::close(fd);
      continue;
    }
    conns_[fd] = conn;
  }
}

void EpollHub::Conn::on_ready(std::uint32_t events) {
  // The hub holds the only long-lived reference; re-acquire a shared_ptr so
  // drop paths inside can erase the map entry safely mid-dispatch.
  auto it = hub->conns_.find(fd);
  if (it == hub->conns_.end()) return;
  const std::shared_ptr<Conn> self_ref = it->second;
  if (connecting) {
    hub->on_dial_writable(self_ref);
    return;
  }
  hub->on_conn_ready(self_ref, events);
}

void EpollHub::on_conn_ready(const std::shared_ptr<Conn>& conn,
                             std::uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    drop_conn(conn);
    return;
  }
  if ((events & EPOLLIN) != 0) {
    read_frames(conn);
    if (conn->fd < 0) return;  // dropped while reading
  }
  if ((events & EPOLLOUT) != 0) flush_writes(conn);
}

void EpollHub::read_frames(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      drop_conn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop_conn(conn);
      return;
    }
    conn->decoder.feed(common::BytesView(buf, static_cast<std::size_t>(n)));
    for (;;) {
      auto frame = conn->decoder.next();
      if (!frame.ok()) {
        common::log_warn("epoll", "malformed frame on hub ", self_);
        drop_conn(conn);
        return;
      }
      if (!frame.value().has_value()) break;
      const wire::FrameDecoder::Frame f = *frame.value();
      if (conn->awaiting_hello) {
        // First frame on an inbound connection must be the hello naming the
        // peer; anything else is a protocol violation on a raw socket.
        if (!f.is_hello() || f.from == kNoNode) {
          drop_conn(conn);
          return;
        }
        conn->awaiting_hello = false;
        conn->peer = f.from;
        register_established(f.from, conn);
        continue;
      }
      meter_.record(f.from, self_, f.payload.size());
      if (frame_handler_) frame_handler_(f.from, f.payload);
      if (conn->fd < 0) return;  // handler tore the hub's state down
    }
  }
}

void EpollHub::enqueue_frame(const std::shared_ptr<Conn>& conn,
                             common::Bytes frame) {
  conn->queued_bytes += frame.size();
  conn->write_queue.push_back(std::move(frame));
  note_enqueued(conn->peer, conn->queued_bytes, conn->paused);
}

void EpollHub::flush_writes(const std::shared_ptr<Conn>& conn) {
  while (!conn->write_queue.empty()) {
    // Gathered write: batch every queued frame (up to kWritevBatch) into one
    // iovec array so a burst of small frames costs one syscall, not one
    // each. sendmsg rather than writev for MSG_NOSIGNAL.
    iovec iov[kWritevBatch];
    int iovcnt = 0;
    for (const common::Bytes& frame : conn->write_queue) {
      if (iovcnt == kWritevBatch) break;
      const std::size_t skip =
          iovcnt == 0 ? conn->write_offset : std::size_t{0};
      iov[iovcnt].iov_base =
          const_cast<std::uint8_t*>(frame.data() + skip);
      iov[iovcnt].iov_len = frame.size() - skip;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop_conn(conn);
      return;
    }
    wire_stats_.writev_batches += 1;
    std::size_t written = static_cast<std::size_t>(n);
    conn->queued_bytes -= written;
    while (written > 0) {
      const std::size_t front_remaining =
          conn->write_queue.front().size() - conn->write_offset;
      if (written >= front_remaining) {
        written -= front_remaining;
        conn->write_queue.pop_front();
        conn->write_offset = 0;
      } else {
        conn->write_offset += written;
        written = 0;
      }
    }
  }
  update_events(conn);
  // Resume last: the handler may synchronously queue more frames, which
  // must observe a consistent epoll mask first.
  note_drained(conn->peer, conn->queued_bytes, conn->paused);
}

void EpollHub::update_events(const std::shared_ptr<Conn>& conn) {
  const std::uint32_t wanted =
      EPOLLIN | (conn->write_queue.empty() ? 0u : std::uint32_t{EPOLLOUT});
  if (wanted == conn->watched_events) return;
  if (loop_->modify(conn->fd, wanted).ok()) conn->watched_events = wanted;
}

void EpollHub::drop_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;
  loop_->unwatch(conn->fd);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  const NodeId peer = conn->peer;
  if (peer == kNoNode) return;
  release_pause_on_drop(peer, conn->paused);
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second != conn) return;
  peers_.erase(it);
  report_peer_lost(peer);
}

void EpollHub::report_peer_lost(NodeId peer) {
  lost_peers_.insert(peer);
  common::log_warn("epoll", "hub ", self_, " lost connection to peer ", peer);
  if (peer_lost_handler_) peer_lost_handler_(peer);
}

void EpollHub::register_established(NodeId peer,
                                    const std::shared_ptr<Conn>& conn) {
  lost_peers_.erase(peer);  // a reconnect clears the lost mark
  peers_[peer] = conn;
}

void EpollHub::connect_peer(NodeId peer, const std::string& host,
                            std::uint16_t port, DialOptions options) {
  if (options.max_attempts < 1) options.max_attempts = 1;
  Dial dial;
  dial.host = host;
  dial.port = port;
  dial.attempts_left = options.max_attempts;
  dial.backoff = options.initial_backoff;
  dials_[peer] = std::move(dial);
  attempt_dial(peer);
}

void EpollHub::attempt_dial(NodeId peer) {
  auto it = dials_.find(peer);
  if (it == dials_.end()) return;
  Dial& dial = it->second;
  dial.retry_timer.reset();
  dial.attempts_left -= 1;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(dial.port);
  if (::inet_pton(AF_INET, dial.host.c_str(), &addr.sin_addr) != 1) {
    dial.attempts_left = 0;  // a bad address never resolves itself
    dial_attempt_failed(peer);
    return;
  }
  const int fd = make_nonblocking_socket();
  if (fd < 0) {
    dial_attempt_failed(peer);
    return;
  }
  set_nodelay(fd);
  auto conn = std::make_shared<Conn>(this, fd);
  conn->peer = peer;
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc == 0) {
    conn->watched_events = EPOLLIN;
    if (!loop_->watch(fd, EPOLLIN, conn).ok()) {
      ::close(fd);
      dial_attempt_failed(peer);
      return;
    }
    conns_[fd] = conn;
    finish_dial(peer, conn);
    return;
  }
  if (errno != EINPROGRESS) {
    ::close(fd);
    dial_attempt_failed(peer);
    return;
  }
  // In-flight: EPOLLOUT fires when the connect resolves either way; the
  // SO_ERROR check in on_dial_writable tells which.
  conn->connecting = true;
  conn->watched_events = EPOLLOUT;
  if (!loop_->watch(fd, EPOLLOUT, conn).ok()) {
    ::close(fd);
    dial_attempt_failed(peer);
    return;
  }
  conns_[fd] = conn;
}

void EpollHub::on_dial_writable(const std::shared_ptr<Conn>& conn) {
  const NodeId peer = conn->peer;
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  ::getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
  if (so_error != 0) {
    loop_->unwatch(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->fd = -1;
    dial_attempt_failed(peer);
    return;
  }
  conn->connecting = false;
  conn->watched_events = EPOLLIN;
  (void)loop_->modify(conn->fd, EPOLLIN);
  finish_dial(peer, conn);
}

void EpollHub::dial_attempt_failed(NodeId peer) {
  auto it = dials_.find(peer);
  if (it == dials_.end()) return;
  Dial& dial = it->second;
  if (dial.attempts_left <= 0) {
    // Frames queued against the dial die with it; the counter makes the
    // loss visible in run reports instead of silent.
    wire_stats_.dial_dropped_frames += dial.pending.size();
    dials_.erase(it);
    report_peer_lost(peer);
    return;
  }
  // Jitter desynchronizes the retry schedules of peers that all lost the
  // same endpoint at the same moment (a leader restart), so the reconnect
  // storm does not arrive as one synchronized wave per backoff step.
  const std::chrono::milliseconds backoff = jittered(dial.backoff);
  dial.backoff *= 2;
  dial.retry_timer = loop_->add_timer_after(
      backoff, [this, peer] { attempt_dial(peer); });
}

void EpollHub::finish_dial(NodeId peer, const std::shared_ptr<Conn>& conn) {
  auto it = dials_.find(peer);
  // Hello first, then everything queued while the dial was in flight,
  // preserving send order.
  enqueue_frame(conn, wire::encode_hello(self_));
  if (it != dials_.end()) {
    for (common::Bytes& frame : it->second.pending) {
      meter_.record(self_, peer, frame.size() - wire::kFrameHeaderBytes);
      enqueue_frame(conn, std::move(frame));
    }
    dials_.erase(it);
  }
  register_established(peer, conn);
  flush_writes(conn);
}

Status EpollHub::send(NodeId to, common::Bytes payload) {
  common::Bytes frame = wire::encode_frame(self_, payload);
  if (auto dial = dials_.find(to); dial != dials_.end()) {
    // The frame waits in its wire shape until the dial resolves.
    dial->second.pending.push_back(std::move(frame));
    return Status::success();
  }
  auto it = peers_.find(to);
  if (it == peers_.end()) {
    const bool lost = lost_peers_.count(to) > 0;
    return make_error(
        Errc::unknown_peer,
        (lost ? "connection to node " : "no connection to node ") +
            std::to_string(to) + (lost ? " was lost" : ""));
  }
  const std::shared_ptr<Conn> conn = it->second;
  meter_.record(self_, to, payload.size());
  enqueue_frame(conn, std::move(frame));
  // Opportunistic flush: most frames fit the socket buffer, so this usually
  // drains the queue without an epoll round trip.
  flush_writes(conn);
  if (conn->fd < 0) {
    return make_error(Errc::unknown_peer,
                      "connection to node " + std::to_string(to) +
                          " was lost");
  }
  return Status::success();
}

bool EpollHub::is_connected(NodeId peer) const {
  return peers_.count(peer) > 0;
}

}  // namespace gendpr::net
