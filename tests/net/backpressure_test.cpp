// Write-side backpressure of EpollHub under a slow reader: the
// per-connection queue stays bounded by the watermark (no OOM from one stuck
// peer), pause/resume fire exactly at the high/low marks, a paused link
// never head-of-line-blocks a healthy sibling, and killing the peer in the
// middle of a partial write tears the connection down cleanly and releases
// the pause.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"

namespace gendpr::net {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kHigh = 128 * 1024;
constexpr std::size_t kLow = 32 * 1024;
constexpr std::size_t kChunk = 8 * 1024;
constexpr int kMaxIterations = 20000;  // safety cap, never a real bound

/// A TCP endpoint that accepts one connection and reads only when told to —
/// the "slow peer" the hub must not let poison anything else.
struct SlowReader {
  int listen_fd = -1;
  int conn_fd = -1;
  std::uint16_t port = 0;
  std::size_t drained = 0;

  static SlowReader listen_on_loopback() {
    SlowReader reader;
    reader.listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(reader.listen_fd, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr));
    ::listen(reader.listen_fd, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(reader.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    reader.port = ntohs(addr.sin_port);
    return reader;
  }

  bool try_accept() {
    if (conn_fd >= 0) return true;
    conn_fd = ::accept4(listen_fd, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    return conn_fd >= 0;
  }

  std::size_t drain(std::size_t max_bytes) {
    if (conn_fd < 0) return 0;
    std::vector<std::uint8_t> buf(max_bytes);
    const ssize_t n = ::recv(conn_fd, buf.data(), buf.size(), 0);
    if (n <= 0) return 0;
    drained += static_cast<std::size_t>(n);
    return static_cast<std::size_t>(n);
  }

  void kill_connection() {
    if (conn_fd >= 0) {
      ::close(conn_fd);
      conn_fd = -1;
    }
  }

  ~SlowReader() {
    kill_connection();
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

std::unique_ptr<EpollHub> make_hub(EventLoop& loop, NodeId self) {
  auto hub = EpollHub::create(loop, self, 0);
  EXPECT_TRUE(hub.ok());
  return std::move(hub).take();
}

/// Sends chunks to `peer` until the hub reports the pause; the queue must
/// stay bounded by the watermark plus the one enqueue that crossed it.
std::size_t fill_until_paused(EventLoop& loop, Hub& hub, NodeId peer,
                              const bool& paused) {
  const common::Bytes chunk(kChunk, 0xAB);
  std::size_t sent = 0;
  for (int i = 0; i < kMaxIterations && !paused; ++i) {
    EXPECT_TRUE(hub.send(peer, chunk).ok());
    ++sent;
    loop.poll_once(0ms);
  }
  return sent;
}

TEST(BackpressureTest, SlowReaderPausesThenDrainingResumes) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = make_hub(loop, 2);
  hub->set_watermarks({kHigh, kLow});
  bool paused = false;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  hub->set_backpressure_handler([&](NodeId peer, bool now_paused) {
    EXPECT_EQ(peer, 1u);
    paused = now_paused;
    (now_paused ? pauses : resumes) += 1;
  });

  SlowReader reader = SlowReader::listen_on_loopback();
  hub->connect_peer(1, "127.0.0.1", reader.port);
  loop.run_until([&] {
    reader.try_accept();
    return hub->is_connected(1);
  });

  const std::size_t sent = fill_until_paused(loop, *hub, 1, paused);
  ASSERT_TRUE(paused) << "queue never crossed the high watermark";
  EXPECT_EQ(pauses, 1u);
  EXPECT_EQ(resumes, 0u);
  // Bounded growth: at most the watermark plus the enqueue that crossed it
  // (frame payload + header). A producer that obeys the pause cannot OOM.
  EXPECT_LE(hub->backpressure().peak_queued_bytes, kHigh + kChunk + 8);

  // Drain the peer: the queue empties through the loop and the hub resumes
  // exactly once, below the low watermark.
  for (int i = 0; i < kMaxIterations && resumes == 0; ++i) {
    reader.drain(64 * 1024);
    loop.poll_once(1ms);
  }
  ASSERT_EQ(resumes, 1u);
  EXPECT_FALSE(paused);

  // Every byte accepted before the pause is eventually delivered intact:
  // hello (8 bytes, empty payload) + sent framed chunks.
  const std::size_t expected = 8 + sent * (kChunk + 8);
  for (int i = 0; i < kMaxIterations && reader.drained < expected; ++i) {
    reader.drain(64 * 1024);
    loop.poll_once(1ms);
  }
  EXPECT_EQ(reader.drained, expected);
}

TEST(BackpressureTest, PausedPeerDoesNotBlockASibling) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = make_hub(loop, 3);
  hub->set_watermarks({kHigh, kLow});
  bool paused = false;
  hub->set_backpressure_handler(
      [&](NodeId, bool now_paused) { paused = now_paused; });

  SlowReader reader = SlowReader::listen_on_loopback();
  auto fast = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(fast.ok());
  std::map<NodeId, std::vector<common::Bytes>> fast_received;
  fast.value()->set_frame_handler([&](NodeId from, common::BytesView payload) {
    fast_received[from].push_back(common::Bytes(payload.begin(), payload.end()));
  });

  hub->connect_peer(1, "127.0.0.1", reader.port);
  hub->connect_peer(2, "127.0.0.1", fast.value()->port());
  loop.run_until([&] {
    reader.try_accept();
    return hub->is_connected(1) && hub->is_connected(2);
  });

  fill_until_paused(loop, *hub, 1, paused);
  ASSERT_TRUE(paused);

  // The healthy link keeps flowing while the slow one sits paused: no
  // head-of-line blocking across connections.
  const common::Bytes note{0x42};
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(hub->send(2, note).ok());
  loop.run_until([&] { return fast_received[3].size() == 50; });
  EXPECT_EQ(fast_received[3].size(), 50u);
  EXPECT_TRUE(paused) << "draining the fast link must not touch the slow one";
}

TEST(BackpressureTest, KillingPeerMidPartialWriteReleasesThePause) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = make_hub(loop, 2);
  hub->set_watermarks({kHigh, kLow});
  bool paused = false;
  std::vector<NodeId> lost;
  hub->set_backpressure_handler(
      [&](NodeId, bool now_paused) { paused = now_paused; });
  hub->set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });

  SlowReader reader = SlowReader::listen_on_loopback();
  hub->connect_peer(1, "127.0.0.1", reader.port);
  loop.run_until([&] {
    reader.try_accept();
    return hub->is_connected(1);
  });

  fill_until_paused(loop, *hub, 1, paused);
  ASSERT_TRUE(paused);

  // The peer dies with a multi-frame queue mid-flight (socket buffers full,
  // partial write pending). The hub must drop the connection, report the
  // loss, and lift the pause so no producer is left stalled on a ghost.
  reader.kill_connection();
  loop.run_until([&] { return !lost.empty(); });
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], 1u);
  EXPECT_FALSE(paused);
  EXPECT_FALSE(hub->is_connected(1));
  EXPECT_EQ(hub->backpressure().resumes, 1u);
  // Teardown with the dead conn's queue still populated must be clean
  // (ASan/LSan guard the buffers).
}

}  // namespace
}  // namespace gendpr::net
