// EpollHub tests: nonblocking dial + hello identity exchange, ordered
// buffering of frames sent while a dial is in flight, dial retries and bad
// addresses, large and many frames over one connection, the federation's
// star topology, peer-loss reporting on both connection death and dial
// exhaustion, traffic metering, and the inbound hello check against raw
// sockets — all on a single thread.
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
  hub.value()->set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
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

  // Far past one receive buffer and the write watermark: the frame crosses
  // many partial writes and reads.
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

}  // namespace
}  // namespace gendpr::net
