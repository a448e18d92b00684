// MemoryHub tests: linking through the registry, ordered delivery on the
// receiving hub's loop, peer-loss reporting on hub destruction and failed
// dials, interleaved senders, and traffic metering.
#include "net/memory_hub.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "net/event_loop.hpp"

namespace gendpr::net {
namespace {

using common::Bytes;

/// Records every frame a hub delivers, per sender.
struct Sink {
  explicit Sink(Hub& hub) {
    hub.set_frame_handler([this](NodeId from, common::BytesView payload) {
      frames[from].push_back(Bytes(payload.begin(), payload.end()));
      total += 1;
    });
  }
  std::map<NodeId, std::vector<Bytes>> frames;
  std::size_t total = 0;
};

TEST(MemoryHubTest, SendBetweenAttachedNodes) {
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub a(registry, loop, 1);
  MemoryHub b(registry, loop, 2);
  Sink sink_a(a);
  Sink sink_b(b);
  a.connect_peer(2, "", 0);
  EXPECT_TRUE(a.is_connected(2));
  ASSERT_TRUE(a.send(2, Bytes{0x11}).ok());
  loop.run_until([&] { return sink_b.total == 1; });
  EXPECT_EQ(sink_b.frames[1], std::vector<Bytes>{Bytes{0x11}});

  // The dial linked both directions: the dialed hub can answer.
  EXPECT_TRUE(b.is_connected(1));
  ASSERT_TRUE(b.send(1, Bytes{0x22}).ok());
  loop.run_until([&] { return sink_a.total == 1; });
  EXPECT_EQ(sink_a.frames[2], std::vector<Bytes>{Bytes{0x22}});
}

TEST(MemoryHubTest, SendToUnknownPeerFails) {
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub a(registry, loop, 1);
  MemoryHub b(registry, loop, 2);
  // Registered but never linked: no connection, exactly like a socket hub.
  const common::Status status = a.send(2, Bytes{0x11});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::unknown_peer);
}

TEST(MemoryHubTest, FifoOrder) {
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub a(registry, loop, 1);
  MemoryHub b(registry, loop, 2);
  Sink sink(b);
  a.connect_peer(2, "", 0);
  for (std::uint8_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.send(2, Bytes{i}).ok());
  }
  loop.run_until([&] { return sink.total == 200; });
  ASSERT_EQ(sink.frames[1].size(), 200u);
  for (std::uint8_t i = 0; i < 200; ++i) {
    EXPECT_EQ(sink.frames[1][i], Bytes{i});
  }
}

TEST(MemoryHubTest, PeerHubDestructionReportsLoss) {
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub a(registry, loop, 1);
  std::vector<NodeId> lost;
  a.set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
  {
    MemoryHub b(registry, loop, 2);
    a.connect_peer(2, "", 0);
    ASSERT_TRUE(a.is_connected(2));
  }  // the peer host goes away
  loop.run_until([&] { return !lost.empty(); });
  EXPECT_EQ(lost, std::vector<NodeId>{2});
  EXPECT_FALSE(a.is_connected(2));
  // Further sends fail as lost, not as never-known.
  const common::Status sent = a.send(2, Bytes{3});
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, common::Errc::unknown_peer);
  EXPECT_NE(sent.error().message.find("was lost"), std::string::npos);
}

TEST(MemoryHubTest, DialWithoutPeerReportsLoss) {
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub a(registry, loop, 1);
  std::vector<NodeId> lost;
  a.set_peer_lost_handler([&](NodeId peer) { lost.push_back(peer); });
  a.connect_peer(9, "", 0);  // nothing registered as node 9
  loop.run_until([&] { return !lost.empty(); });
  EXPECT_EQ(lost, std::vector<NodeId>{9});
  EXPECT_FALSE(a.is_connected(9));
}

TEST(MemoryHubTest, DroppedSendNotMetered) {
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub a(registry, loop, 1);
  auto b = std::make_unique<MemoryHub>(registry, loop, 2);
  a.connect_peer(2, "", 0);
  b.reset();  // receiver gone; its loss notice has not been drained yet
  EXPECT_FALSE(a.send(2, Bytes(64)).ok());
  EXPECT_EQ(a.meter().total_bytes(), 0u);
}

TEST(MemoryHubTest, PerSenderFifoUnderInterleavedSenders) {
  // Eight hubs on the sink's loop take turns sending to one sink hub, and
  // the sink's own drain tasks run between rounds: every frame arrives, in
  // send order per sender.
  constexpr int kSenders = 8;
  constexpr int kPerSender = 200;
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub sink_hub(registry, loop, 100);
  Sink sink(sink_hub);

  std::vector<std::unique_ptr<MemoryHub>> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.push_back(std::make_unique<MemoryHub>(
        registry, loop, static_cast<NodeId>(s + 1)));
    senders.back()->connect_peer(100, "", 0);
  }
  for (int i = 0; i < kPerSender; ++i) {
    for (int s = 0; s < kSenders; ++s) {
      ASSERT_TRUE(senders[s]
                      ->send(100, Bytes{static_cast<std::uint8_t>(i & 0xff),
                                        static_cast<std::uint8_t>(i >> 8)})
                      .ok());
    }
    if (i % 7 == 0) loop.poll_once(std::chrono::milliseconds{0});
  }
  loop.run_until([&] { return sink.total == kSenders * kPerSender; });
  ASSERT_EQ(sink.total, static_cast<std::size_t>(kSenders * kPerSender));
  for (int s = 0; s < kSenders; ++s) {
    const auto& frames = sink.frames[static_cast<NodeId>(s + 1)];
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(kPerSender));
    for (int i = 0; i < kPerSender; ++i) {
      EXPECT_EQ(frames[i][0] | (frames[i][1] << 8), i);
    }
  }
}

TEST(TrafficMeterTest, RecordsBytesAndMessages) {
  TrafficMeter meter;
  meter.record(1, 2, 100);
  meter.record(1, 2, 50);
  meter.record(2, 1, 25);
  EXPECT_EQ(meter.total_bytes(), 175u);
  EXPECT_EQ(meter.total_messages(), 3u);
  EXPECT_EQ(meter.bytes_sent_by(1), 150u);
  EXPECT_EQ(meter.bytes_received_by(1), 25u);
  EXPECT_EQ(meter.bytes_received_by(2), 150u);
  const std::vector<TrafficMeter::Link> links = meter.snapshot();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].from, 1u);
  EXPECT_EQ(links[0].messages, 2u);
}

TEST(TrafficMeterTest, BroadcastCountsPerReceiver) {
  // A leader fanning one payload out to two members meters it once per
  // receiver, on both ends of each link.
  EventLoop loop;
  MemoryHub::Registry registry;
  MemoryHub leader(registry, loop, 1);
  MemoryHub m2(registry, loop, 2);
  MemoryHub m3(registry, loop, 3);
  Sink sink2(m2);
  Sink sink3(m3);
  m2.connect_peer(1, "", 0);
  m3.connect_peer(1, "", 0);
  loop.run_until(
      [&] { return leader.is_connected(2) && leader.is_connected(3); });
  ASSERT_TRUE(leader.send(2, Bytes(10)).ok());
  ASSERT_TRUE(leader.send(3, Bytes(10)).ok());
  loop.run_until([&] { return sink2.total == 1 && sink3.total == 1; });
  EXPECT_EQ(leader.meter().total_bytes(), 20u);
  EXPECT_EQ(leader.meter().total_messages(), 2u);
  EXPECT_EQ(m2.meter().bytes_received_by(2), 10u);
}

TEST(TrafficMeterTest, ResetClears) {
  TrafficMeter meter;
  meter.record(1, 2, 10);
  meter.reset();
  EXPECT_EQ(meter.total_bytes(), 0u);
  EXPECT_TRUE(meter.snapshot().empty());
}

}  // namespace
}  // namespace gendpr::net
