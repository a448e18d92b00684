// EpollHub tests: nonblocking dial + hello identity exchange, ordered
// buffering of frames sent while a dial is in flight, dial retries and bad
// addresses, large and many frames over one connection, the federation's
// star topology, peer-loss reporting on both connection death and dial
// exhaustion, traffic metering, the inbound hello check against raw
// sockets, and a peer that stops reading (its backlog is delivered intact
// once it reads, holds back no sibling connection, and dies cleanly) — all
// on a single thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "wire/frame.hpp"

namespace gendpr::net {
namespace {

using namespace std::chrono_literals;

common::Bytes bytes_of(std::initializer_list<std::uint8_t> values) {
  return common::Bytes(values);
}

TEST(EpollHubTest, DialHelloAndFramesBothWays) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto a = EpollHub::create(loop, 1, 0);
  auto b = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::map<NodeId, std::vector<common::Bytes>> a_received;
  std::map<NodeId, std::vector<common::Bytes>> b_received;
  a.value()->set_frame_handler([&](NodeId from, common::BytesView payload) {
    a_received[from].push_back(common::Bytes(payload.begin(), payload.end()));
  });
  b.value()->set_frame_handler([&](NodeId from, common::BytesView payload) {
    b_received[from].push_back(common::Bytes(payload.begin(), payload.end()));
  });

  // Frames queued before the dial completes must arrive after the hello, in
  // send order.
  b.value()->connect_peer(1, "127.0.0.1", a.value()->port());
  ASSERT_TRUE(b.value()->send(1, bytes_of({10})).ok());
  ASSERT_TRUE(b.value()->send(1, bytes_of({11, 12})).ok());

  loop.run_until([&] { return a_received[2].size() == 2; });
  ASSERT_EQ(a_received[2].size(), 2u);
  EXPECT_EQ(a_received[2][0], bytes_of({10}));
  EXPECT_EQ(a_received[2][1], bytes_of({11, 12}));
  EXPECT_TRUE(a.value()->is_connected(2));

  // The hello identified the dialer, so the accepting side can answer.
  ASSERT_TRUE(a.value()->send(2, bytes_of({20})).ok());
  loop.run_until([&] { return b_received[1].size() == 1; });
  EXPECT_EQ(b_received[1][0], bytes_of({20}));

  // Payload bytes were metered on both hubs (hellos carry no payload).
  EXPECT_EQ(b.value()->meter().total_bytes(), 4u);
  EXPECT_EQ(a.value()->meter().total_bytes(), 4u);
  EXPECT_EQ(a.value()->meter().bytes_received_by(1), 3u);
}

TEST(EpollHubTest, SendToUnknownPeerFails) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  const common::Status sent = hub.value()->send(9, bytes_of({1}));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
}

TEST(EpollHubTest, PeerHubDestructionReportsLoss) {
  EventLoop loop;
  auto a = EpollHub::create(loop, 1, 0);
  auto b = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<NodeId> lost;
  a.value()->set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
  b.value()->connect_peer(1, "127.0.0.1", a.value()->port());
  ASSERT_TRUE(b.value()->send(1, bytes_of({1})).ok());
  a.value()->set_frame_handler([](NodeId, common::BytesView) {});
  loop.run_until([&] { return a.value()->is_connected(2); });

  b.value().reset();  // the peer "machine" goes away
  loop.run_until([&] { return !lost.empty(); });
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], 2u);
  EXPECT_FALSE(a.value()->is_connected(2));
  // Further sends to the dead peer fail as lost, not as never-known.
  const common::Status sent = a.value()->send(2, bytes_of({3}));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
  EXPECT_NE(sent.error().message.find("was lost"), std::string::npos);
}

TEST(EpollHubTest, ExhaustedDialReportsPeerLost) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  // Find a loopback port with no listener: bind-then-close frees it.
  auto probe = EpollHub::create(loop, 7, 0);
  ASSERT_TRUE(probe.ok());
  const std::uint16_t dead_port = probe.value()->port();
  probe.value().reset();

  std::vector<NodeId> lost;
  hub.value()->set_peer_lost_handler(
      [&](NodeId peer) { lost.push_back(peer); });
  EpollHub::DialOptions options;
  options.max_attempts = 2;
  options.initial_backoff = 5ms;
  hub.value()->connect_peer(9, "127.0.0.1", dead_port, options);
  // Frames sent during the dial ride its fate.
  ASSERT_TRUE(hub.value()->send(9, bytes_of({1})).ok());
  loop.run_until([&] { return !lost.empty(); });
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], 9u);
}

TEST(EpollHubTest, CreateBindsEphemeralPort) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok()) << hub.error().to_string();
  EXPECT_NE(hub.value()->port(), 0);
}

TEST(EpollHubTest, BadHostRejected) {
  EventLoop loop;
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  std::vector<NodeId> lost;
  hub.value()->set_peer_lost_handler(
      [&](NodeId peer) { lost.push_back(peer); });
  // An unparsable address never resolves itself: no retries, lost at once.
  hub.value()->connect_peer(2, "not-an-ip", 1234);
  EXPECT_EQ(lost, std::vector<NodeId>{2});
  EXPECT_FALSE(hub.value()->is_connected(2));
}

TEST(EpollHubTest, ConnectRetriesUntilListenerAppears) {
  EventLoop loop;
  auto a = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(a.ok());
  std::uint16_t port = 0;
  {
    auto scratch = EpollHub::create(loop, 9, 0);
    ASSERT_TRUE(scratch.ok());
    port = scratch.value()->port();
  }  // the port is free again; nothing is listening on it yet

  std::unique_ptr<EpollHub> b;
  loop.add_timer_after(80ms, [&] {
    auto hub = EpollHub::create(loop, 2, port);
    ASSERT_TRUE(hub.ok()) << hub.error().to_string();
    b = std::move(hub).take();
  });
  EpollHub::DialOptions options;
  options.max_attempts = 10;
  options.initial_backoff = 20ms;
  a.value()->connect_peer(2, "127.0.0.1", port, options);
  loop.run_until([&] { return a.value()->is_connected(2); });
  EXPECT_TRUE(a.value()->is_connected(2));
}

TEST(EpollHubTest, LargePayloadRoundTrip) {
  EventLoop loop;
  auto a = EpollHub::create(loop, 1, 0);
  auto b = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<common::Bytes> received;
  b.value()->set_frame_handler([&](NodeId, common::BytesView payload) {
    received.push_back(common::Bytes(payload.begin(), payload.end()));
  });
  a.value()->connect_peer(2, "127.0.0.1", b.value()->port());

  // Far past one receive buffer: the frame crosses many partial writes and
  // reads.
  common::Rng rng(3);
  common::Bytes big(2 * 1024 * 1024);
  for (auto& byte : big) byte = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(a.value()->send(2, big).ok());
  loop.run_until([&] { return !received.empty(); });
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], big);
}

TEST(EpollHubTest, ManyMessagesPreserveOrder) {
  EventLoop loop;
  auto a = EpollHub::create(loop, 1, 0);
  auto b = EpollHub::create(loop, 2, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<std::uint32_t> received;
  b.value()->set_frame_handler([&](NodeId, common::BytesView payload) {
    std::uint32_t value = 0;
    for (int j = 0; j < 4; ++j) value |= std::uint32_t{payload[j]} << (8 * j);
    received.push_back(value);
  });
  a.value()->connect_peer(2, "127.0.0.1", b.value()->port());
  for (std::uint32_t i = 0; i < 500; ++i) {
    common::Bytes msg(4);
    for (int j = 0; j < 4; ++j) {
      msg[j] = static_cast<std::uint8_t>(i >> (8 * j));
    }
    ASSERT_TRUE(a.value()->send(2, std::move(msg)).ok());
  }
  loop.run_until([&] { return received.size() == 500; });
  ASSERT_EQ(received.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) EXPECT_EQ(received[i], i);
}

/// Blocking loopback client socket connected to `port`, or -1.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

common::Bytes concat(const common::Bytes& a, const common::Bytes& b) {
  common::Bytes out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

TEST(EpollHubTest, MalformedFirstFrameDropsTheConnection) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = EpollHub::create(loop, 1, 0);
  ASSERT_TRUE(hub.ok());
  std::vector<NodeId> senders;
  hub.value()->set_frame_handler(
      [&](NodeId from, common::BytesView) { senders.push_back(from); });

  // Each stream opens with something other than an empty-payload hello from
  // a nonzero node, then carries a data frame the hub must never deliver.
  const common::Bytes data = wire::encode_frame(5, bytes_of({7}));
  const common::Bytes eight = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<common::Bytes> streams = {
      // (a) a data frame where the hello belongs
      concat(wire::encode_frame(5, bytes_of({1, 2, 3})), data),
      // (b) an 8-byte payload, the shape of the retired study-id hello
      concat(wire::encode_frame(5, eight), data),
      // (c) an empty hello naming node 0
      concat(wire::encode_hello(kNoNode),
             wire::encode_frame(kNoNode, bytes_of({7}))),
  };
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const common::Bytes& stream = streams[i];
    const int fd = raw_connect(hub.value()->port());
    ASSERT_GE(fd, 0) << "stream " << i;
    ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(stream.size()))
        << "stream " << i;
    // Bounded polls, not run_until: once the hub has closed the connection
    // nothing wakes the loop again.
    bool closed = false;
    for (int poll = 0; poll < 1000 && !closed; ++poll) {
      loop.poll_once(5ms);
      std::uint8_t probe = 0;
      const ssize_t n = ::recv(fd, &probe, 1, MSG_DONTWAIT);
      closed = n == 0 || (n < 0 && errno == ECONNRESET);
    }
    EXPECT_TRUE(closed) << "stream " << i;
    ::close(fd);
    EXPECT_TRUE(senders.empty()) << "stream " << i;
    EXPECT_FALSE(hub.value()->is_connected(5)) << "stream " << i;
    EXPECT_FALSE(hub.value()->is_connected(kNoNode)) << "stream " << i;
  }

  // A proper dial afterwards still exchanges frames both ways.
  auto peer = EpollHub::create(loop, 5, 0);
  ASSERT_TRUE(peer.ok());
  std::vector<common::Bytes> at_peer;
  peer.value()->set_frame_handler([&](NodeId, common::BytesView payload) {
    at_peer.push_back(common::Bytes(payload.begin(), payload.end()));
  });
  peer.value()->connect_peer(1, "127.0.0.1", hub.value()->port());
  ASSERT_TRUE(peer.value()->send(1, bytes_of({9})).ok());
  loop.run_until([&] { return !senders.empty(); });
  EXPECT_EQ(senders, std::vector<NodeId>{5});
  ASSERT_TRUE(hub.value()->send(5, bytes_of({10})).ok());
  loop.run_until([&] { return at_peer.size() == 1; });
  ASSERT_EQ(at_peer.size(), 1u);
  EXPECT_EQ(at_peer[0], bytes_of({10}));
}

TEST(EpollHubTest, ThreeHubStar) {
  // Leader hub + two members dialing in: the federation topology.
  EventLoop loop;
  auto leader = EpollHub::create(loop, 1, 0);
  auto m1 = EpollHub::create(loop, 2, 0);
  auto m2 = EpollHub::create(loop, 3, 0);
  ASSERT_TRUE(leader.ok());
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  std::vector<NodeId> senders;
  std::size_t replies = 0;
  leader.value()->set_frame_handler(
      [&](NodeId from, common::BytesView) { senders.push_back(from); });
  m1.value()->set_frame_handler([&](NodeId, common::BytesView) { ++replies; });
  m2.value()->set_frame_handler([&](NodeId, common::BytesView) { ++replies; });
  m1.value()->connect_peer(1, "127.0.0.1", leader.value()->port());
  m2.value()->connect_peer(1, "127.0.0.1", leader.value()->port());
  ASSERT_TRUE(m1.value()->send(1, bytes_of({0xaa})).ok());
  ASSERT_TRUE(m2.value()->send(1, bytes_of({0xbb})).ok());
  loop.run_until([&] { return senders.size() == 2; });
  std::sort(senders.begin(), senders.end());
  EXPECT_EQ(senders, (std::vector<NodeId>{2, 3}));
  // The leader can reply to both over the accepted connections.
  ASSERT_TRUE(leader.value()->send(2, bytes_of({0x01})).ok());
  ASSERT_TRUE(leader.value()->send(3, bytes_of({0x02})).ok());
  loop.run_until([&] { return replies == 2; });
  EXPECT_EQ(replies, 2u);
}

constexpr std::size_t kChunk = 8 * 1024;
constexpr int kMaxIterations = 20000;  // safety cap, never a real bound

/// A TCP endpoint that accepts one connection and reads only when told to:
/// the peer that stops reading, which the hub must not let poison anything
/// else.
struct SlowReader {
  int listen_fd = -1;
  int conn_fd = -1;
  std::uint16_t port = 0;
  common::Bytes stream;  // every byte read so far

  SlowReader() {
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }
  SlowReader(const SlowReader&) = delete;
  SlowReader& operator=(const SlowReader&) = delete;

  bool try_accept() {
    if (conn_fd >= 0) return true;
    conn_fd = ::accept4(listen_fd, nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    return conn_fd >= 0;
  }

  /// Reads whatever has arrived, up to 64 KiB, onto `stream`.
  void drain() {
    if (!try_accept()) return;
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(conn_fd, buf, sizeof(buf), 0);
    if (n > 0) stream.insert(stream.end(), buf, buf + n);
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

/// The k-th frame payload of a backlog: distinct from its neighbours, so a
/// reordered, dropped or torn frame shows.
common::Bytes numbered_chunk(std::size_t k) {
  common::Bytes chunk(kChunk);
  for (std::size_t j = 0; j < kChunk; ++j) {
    chunk[j] = static_cast<std::uint8_t>(k * 131 + j);
  }
  return chunk;
}

/// Dials `peer` at the reader and waits until the connection is up.
void connect_reader(EventLoop& loop, Hub& hub, NodeId peer,
                    SlowReader& reader) {
  hub.connect_peer(peer, "127.0.0.1", reader.port);
  loop.run_until([&] {
    reader.try_accept();
    return hub.is_connected(peer);
  });
}

/// Sends numbered chunks to `peer`, which does not read, until one stays
/// in the hub's queue: a send whose opportunistic flush makes no write
/// means the kernel's socket buffers are full, so the connection now holds
/// a backlog (its front frame usually half written). Returns the frames
/// sent.
std::size_t fill_until_backlogged(Hub& hub, NodeId peer) {
  for (std::size_t sent = 0; sent < kMaxIterations;) {
    const std::uint64_t batches = hub.wire_stats().writev_batches;
    EXPECT_TRUE(hub.send(peer, numbered_chunk(sent)).ok());
    ++sent;
    if (hub.wire_stats().writev_batches == batches) return sent;
  }
  ADD_FAILURE() << "the kernel accepted every frame";
  return kMaxIterations;
}

TEST(EpollHubTest, BacklogToAStalledReaderArrivesInOrderOnceItReads) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = make_hub(loop, 2);
  SlowReader reader;
  connect_reader(loop, *hub, 1, reader);

  const std::size_t sent = fill_until_backlogged(*hub, 1);
  ASSERT_GT(sent, 1u);

  // The reader catches up; the loop's EPOLLOUT writes the backlog out.
  // Every byte arrives: the hello (empty payload) plus every framed chunk.
  const std::size_t expected =
      wire::kFrameHeaderBytes + sent * (wire::kFrameHeaderBytes + kChunk);
  for (int i = 0; i < kMaxIterations && reader.stream.size() < expected;
       ++i) {
    reader.drain();
    loop.poll_once(1ms);
  }
  ASSERT_EQ(reader.stream.size(), expected);

  wire::FrameDecoder decoder;
  decoder.feed(reader.stream);
  auto hello = decoder.next();
  ASSERT_TRUE(hello.ok() && hello.value().has_value());
  EXPECT_TRUE(hello.value()->is_hello());
  EXPECT_EQ(hello.value()->from, 2u);
  for (std::size_t k = 0; k < sent; ++k) {
    auto frame = decoder.next();
    ASSERT_TRUE(frame.ok() && frame.value().has_value()) << "frame " << k;
    EXPECT_EQ(frame.value()->from, 2u);
    const common::Bytes want = numbered_chunk(k);
    ASSERT_TRUE(std::equal(frame.value()->payload.begin(),
                           frame.value()->payload.end(), want.begin(),
                           want.end()))
        << "frame " << k << " reordered or torn";
  }
  auto end = decoder.next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().has_value());
}

TEST(EpollHubTest, StalledReaderDoesNotDelayASibling) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = make_hub(loop, 3);
  auto fast = make_hub(loop, 2);
  std::size_t fast_received = 0;
  fast->set_frame_handler([&](NodeId from, common::BytesView) {
    EXPECT_EQ(from, 3u);
    ++fast_received;
  });
  SlowReader reader;
  connect_reader(loop, *hub, 1, reader);
  hub->connect_peer(2, "127.0.0.1", fast->port());
  loop.run_until([&] { return hub->is_connected(2); });

  fill_until_backlogged(*hub, 1);

  // The healthy link keeps flowing while the stalled one holds its
  // backlog: no head-of-line blocking across connections.
  // Bounded polls, not run_until: a hub that held the sibling back would
  // otherwise hang the test instead of failing it.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(hub->send(2, bytes_of({0x42})).ok());
  for (int i = 0; i < kMaxIterations && fast_received < 50; ++i) {
    loop.poll_once(1ms);
  }
  EXPECT_EQ(fast_received, 50u);

  // The stalled connection is still up and still backlogged: one more
  // frame to it makes no write.
  EXPECT_TRUE(hub->is_connected(1));
  const std::uint64_t batches = hub->wire_stats().writev_batches;
  ASSERT_TRUE(hub->send(1, numbered_chunk(0)).ok());
  EXPECT_EQ(hub->wire_stats().writev_batches, batches);
  EXPECT_TRUE(reader.stream.empty());
}

TEST(EpollHubTest, PeerClosedMidPartialWriteIsLostOnce) {
  EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto hub = make_hub(loop, 2);
  std::vector<NodeId> lost;
  hub->set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
  SlowReader reader;
  connect_reader(loop, *hub, 1, reader);

  fill_until_backlogged(*hub, 1);

  // The peer dies with a multi-frame backlog mid-flight (socket buffers
  // full, a partial write pending). The hub drops the connection and
  // reports the loss exactly once.
  reader.kill_connection();
  loop.run_until([&] { return !lost.empty(); });
  for (int i = 0; i < 20; ++i) loop.poll_once(1ms);
  EXPECT_EQ(lost, std::vector<NodeId>{1});
  EXPECT_FALSE(hub->is_connected(1));
  const common::Status sent = hub->send(1, bytes_of({1}));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
  // Teardown frees the dead connection's queue cleanly (ASan/LSan guard
  // the buffers).
}

}  // namespace
}  // namespace gendpr::net
