// Step-level tests of the sans-IO protocol sessions: a whole federation is
// pumped one step() at a time with no transport, no threads, and no clock
// beyond the TimePoints the test chooses to report. The same surface the
// epoll driver and the fuzz harnesses use.
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <memory>
#include <vector>

#include "gendpr/federation.hpp"
#include "gendpr/messages.hpp"
#include "gendpr/session.hpp"
#include "gendpr/trusted.hpp"
#include "message_bytes.hpp"
#include "tee/attestation.hpp"

namespace gendpr::core {
namespace {

using Clock = ProtocolSession::Clock;

/// One delivered frame of a pumped federation, in delivery order.
struct TranscriptEntry {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  common::Bytes payload;
};

/// Routes frames between the sessions (indexed by GDO) until no session has
/// output left, recording every delivery. Breadth-first FIFO order, so the
/// transcript is deterministic.
std::vector<TranscriptEntry> pump_federation(
    std::vector<ProtocolSession*> sessions) {
  std::deque<TranscriptEntry> in_flight;
  const auto collect = [&](std::uint32_t from, std::vector<OutFrame> frames) {
    for (OutFrame& frame : frames) {
      in_flight.push_back(TranscriptEntry{
          from, frame.to_gdo, std::move(frame.payload)});
    }
  };
  for (std::uint32_t g = 0; g < sessions.size(); ++g) {
    collect(g, sessions[g]->step({}));
  }
  std::vector<TranscriptEntry> transcript;
  while (!in_flight.empty()) {
    TranscriptEntry entry = std::move(in_flight.front());
    in_flight.pop_front();
    transcript.push_back(entry);
    collect(entry.to,
            sessions[entry.to]->step({InFrame{entry.from, entry.payload}}));
  }
  return transcript;
}

/// Fixed study material shared by the tests below (leader = GDO 0), three
/// GDOs unless a test asks for more.
struct StudyFixture {
  static constexpr std::uint32_t kGdos = 3;

  explicit StudyFixture(std::uint32_t gdos = kGdos)
      : num_gdos(gdos), authority(std::array<std::uint8_t, 32>{0x51}) {
    genome::CohortSpec cohort_spec;
    cohort_spec.num_case = 120;
    cohort_spec.num_control = 120;
    cohort_spec.num_snps = 40;
    cohort_spec.seed = 91;
    cohort = genome::generate_cohort(cohort_spec);
    ranges = genome::equal_partition(cohort_spec.num_case, num_gdos);
    for (std::uint32_t g = 0; g < num_gdos; ++g) {
      platforms.push_back(std::make_unique<tee::Platform>(
          g + 1, authority,
          crypto::Csprng(
              std::array<std::uint8_t, 32>{static_cast<std::uint8_t>(g + 1)})));
    }
  }

  std::unique_ptr<LeaderSession> make_leader() {
    return make_leader(
        genome::BitPlanes(cohort.cases, ranges[0].first, ranges[0].second));
  }
  /// A leader holding `cases` as its own dataset.
  std::unique_ptr<LeaderSession> make_leader(genome::BitPlanes cases) {
    return std::make_unique<LeaderSession>(
        *platforms[0], 0, num_gdos, std::move(cases),
        genome::BitPlanes(cohort.controls), config, policy);
  }
  std::unique_ptr<MemberSession> make_member(std::uint32_t g) {
    return std::make_unique<MemberSession>(
        *platforms[g], g, 0,
        genome::BitPlanes(cohort.cases, ranges[g].first, ranges[g].second));
  }

  std::uint32_t num_gdos;
  tee::QuotingAuthority authority;
  genome::Cohort cohort;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  StudyConfig config;
  CollusionPolicy policy = CollusionPolicy::none();
};

TEST(SessionTest, GoldenTranscriptMatchesInProcessRun) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  auto member1 = fixture.make_member(1);
  auto member2 = fixture.make_member(2);

  const std::vector<TranscriptEntry> transcript =
      pump_federation({leader.get(), member1.get(), member2.get()});

  ASSERT_EQ(leader->wants(), SessionWants::done)
      << leader->status().error().to_string();
  ASSERT_EQ(member1->wants(), SessionWants::done)
      << member1->status().error().to_string();
  ASSERT_EQ(member2->wants(), SessionWants::done)
      << member2->status().error().to_string();
  EXPECT_TRUE(member1->enclave().study_complete());
  EXPECT_TRUE(member2->enclave().study_complete());

  // The very first deliveries are the member handshakes toward the leader.
  ASSERT_GE(transcript.size(), 2u);
  EXPECT_EQ(transcript[0].to, 0u);
  EXPECT_EQ(transcript[1].to, 0u);

  // Per member: every leader frame but phase 3 draws exactly one reply
  // (handshake, summary for the announce, LD window for phase 1, one count
  // per moments request, planes for phase 2), so the leader sends exactly
  // one more frame than it receives.
  for (std::uint32_t member : {1u, 2u}) {
    std::size_t to_member = 0;
    std::size_t from_member = 0;
    for (const TranscriptEntry& entry : transcript) {
      if (entry.to == member) ++to_member;
      if (entry.from == member) ++from_member;
    }
    EXPECT_EQ(to_member, from_member + 1) << "member " << member;
  }

  // The step-driven outcome is the same study the in-process fabric runs.
  FederationSpec spec;
  spec.num_gdos = StudyFixture::kGdos;
  const auto reference = run_federated_study(fixture.cohort, spec);
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();
  EXPECT_EQ(leader->result().outcome.l_prime,
            reference.value().outcome.l_prime);
  EXPECT_EQ(leader->result().outcome.l_double_prime,
            reference.value().outcome.l_double_prime);
  EXPECT_EQ(leader->result().outcome.l_safe, reference.value().outcome.l_safe);
  EXPECT_EQ(member1->enclave().safe_snps(), leader->result().outcome.l_safe);

  // Same seeds, same sessions => byte-identical wire transcript.
  StudyFixture replay;
  auto leader2 = replay.make_leader();
  auto member1b = replay.make_member(1);
  auto member2b = replay.make_member(2);
  const std::vector<TranscriptEntry> transcript2 =
      pump_federation({leader2.get(), member1b.get(), member2b.get()});
  ASSERT_EQ(transcript.size(), transcript2.size());
  for (std::size_t i = 0; i < transcript.size(); ++i) {
    EXPECT_EQ(transcript[i].from, transcript2[i].from) << "frame " << i;
    EXPECT_EQ(transcript[i].to, transcript2[i].to) << "frame " << i;
    EXPECT_EQ(transcript[i].payload, transcript2[i].payload) << "frame " << i;
  }
}

TEST(SessionTest, HandshakeFromUnknownNodeFails) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  leader->step({InFrame{7, common::Bytes{1, 2, 3}}});
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::unknown_peer);
  EXPECT_NE(leader->status().error().message.find("unknown node"),
            std::string::npos);
}

TEST(SessionTest, LeaderRejectsOutOfRangeConfigBeforeHandshake) {
  StudyFixture fixture;
  fixture.config.lr_false_positive_rate = 1.5;
  auto leader = fixture.make_leader();
  EXPECT_TRUE(leader->step({}).empty());
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::invalid_argument);
  EXPECT_NE(leader->status().error().message.find("lr_false_positive_rate"),
            std::string::npos);
}

TEST(SessionTest, LeaderRejectsDatasetOverOtherSnpsBeforeHandshake) {
  // The study spans the reference panel's 40 SNPs; a leader whose own cases
  // cover 30 would assess past the end of its counts.
  StudyFixture fixture;
  genome::CohortSpec narrow_spec;
  narrow_spec.num_case = 40;
  narrow_spec.num_control = 40;
  narrow_spec.num_snps = 30;
  narrow_spec.seed = 92;
  const genome::Cohort narrow = genome::generate_cohort(narrow_spec);
  auto leader = fixture.make_leader(genome::BitPlanes(narrow.cases));
  EXPECT_TRUE(leader->step({}).empty());
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::invalid_argument);
  EXPECT_NE(leader->status().error().message.find("SNP count"),
            std::string::npos)
      << leader->status().error().to_string();
}

TEST(SessionTest, AnnounceCarriesNothingOfTheCollusionPolicy) {
  // The collusion sweep runs on the leader alone: the announce a member
  // decrypts is the same bytes under every policy, so no member learns
  // which honest subsets the leader evaluates.
  std::vector<common::Bytes> plaintexts;
  for (const CollusionPolicy& policy : {CollusionPolicy::none(),
                                        CollusionPolicy::fixed(1),
                                        CollusionPolicy::conservative()}) {
    StudyFixture fixture(4);
    fixture.policy = policy;
    auto leader = fixture.make_leader();
    // GDO 1 is played with the tee primitives so the test can read the
    // plaintext; GDOs 2 and 3 are ordinary members.
    GdoEnclave member(*fixture.platforms[1], 1);
    auto channel = member.channel_to(trusted_module_measurement(),
                                     /*initiator=*/true);
    std::vector<InFrame> handshakes = {
        InFrame{1, channel->handshake_message()}};
    std::vector<std::unique_ptr<MemberSession>> others;
    for (std::uint32_t g : {2u, 3u}) {
      others.push_back(fixture.make_member(g));
      std::vector<OutFrame> handshake = others.back()->step({});
      ASSERT_EQ(handshake.size(), 1u);
      handshakes.push_back(InFrame{g, handshake[0].payload});
    }
    std::vector<common::Bytes> to_member;
    for (const OutFrame& frame : leader->step(std::move(handshakes))) {
      if (frame.to_gdo == 1) to_member.push_back(frame.payload);
    }
    ASSERT_EQ(leader->wants(), SessionWants::recv);
    ASSERT_EQ(to_member.size(), 2u);  // handshake reply, then the announce
    ASSERT_TRUE(channel->complete(to_member[0]).ok());
    auto plaintext = channel->open(to_member[1]);
    ASSERT_TRUE(plaintext.ok()) << plaintext.error().to_string();
    plaintexts.push_back(std::move(plaintext).take());
  }

  const auto opened = open_envelope(plaintexts[0]);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().first, MsgType::study_announce);
  const auto announce = wire::decode<StudyAnnounce>(opened.value().second);
  ASSERT_TRUE(announce.ok());
  EXPECT_EQ(announce.value().num_snps, 40u);
  EXPECT_EQ(announce.value().snp_tile_width, 0u);
  EXPECT_EQ(plaintexts[1], plaintexts[0]) << "fixed(1)";
  EXPECT_EQ(plaintexts[2], plaintexts[0]) << "conservative";
}

TEST(SessionTest, MalformedHandshakeFails) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  leader->step({InFrame{1, common::Bytes(16, 0xAB)}});
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_FALSE(leader->status().ok());
}

TEST(SessionTest, TruncatedHandshakeFails) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  auto member = fixture.make_member(1);
  std::vector<OutFrame> handshake = member->step({});
  ASSERT_EQ(handshake.size(), 1u);
  common::Bytes truncated = handshake[0].payload;
  truncated.resize(truncated.size() / 2);
  leader->step({InFrame{1, std::move(truncated)}});
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_FALSE(leader->status().ok());
}

TEST(SessionTest, WrongAuthorityHandshakeIsRejected) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  // A member attested by a different quoting authority: its quote cannot
  // verify against the leader's deployment root.
  tee::QuotingAuthority rogue_authority(std::array<std::uint8_t, 32>{0x99});
  tee::Platform rogue_platform(9, rogue_authority,
                               crypto::Csprng(std::array<std::uint8_t, 32>{9}));
  MemberSession rogue(rogue_platform, 1, 0,
                      genome::BitPlanes(fixture.cohort.cases, 0, 40));
  std::vector<OutFrame> handshake = rogue.step({});
  ASSERT_EQ(handshake.size(), 1u);
  leader->step({InFrame{1, handshake[0].payload}});
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::attestation_rejected);
}

TEST(SessionTest, TamperedRecordFailsDecryption) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  auto member1 = fixture.make_member(1);
  auto member2 = fixture.make_member(2);

  // Handshakes complete cleanly...
  std::vector<OutFrame> hs1 = member1->step({});
  std::vector<OutFrame> hs2 = member2->step({});
  ASSERT_EQ(hs1.size(), 1u);
  ASSERT_EQ(hs2.size(), 1u);
  std::vector<OutFrame> replies =
      leader->step({InFrame{1, hs1[0].payload},
                    InFrame{2, hs2[0].payload}});
  common::Bytes to_member1;
  for (OutFrame& frame : replies) {
    if (frame.to_gdo == 1 && to_member1.empty()) {
      to_member1 = frame.payload;
    }
  }
  ASSERT_FALSE(to_member1.empty());
  // ...but the handshake reply reaching member 1 is tampered in flight.
  to_member1[to_member1.size() / 2] ^= 0x01;
  member1->step({InFrame{0, std::move(to_member1)}});
  ASSERT_EQ(member1->wants(), SessionWants::failed);
  EXPECT_FALSE(member1->status().ok());
}

TEST(SessionTest, ReplayedRecordIsRejected) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  auto member1 = fixture.make_member(1);
  auto member2 = fixture.make_member(2);

  std::vector<OutFrame> hs1 = member1->step({});
  std::vector<OutFrame> hs2 = member2->step({});
  std::vector<OutFrame> replies =
      leader->step({InFrame{1, hs1[0].payload},
                    InFrame{2, hs2[0].payload}});
  // First frame to member 1 is its handshake reply; the next (the sealed
  // study announce) is the replay victim.
  common::Bytes reply1;
  common::Bytes announce1;
  for (OutFrame& frame : replies) {
    if (frame.to_gdo != 1) continue;
    if (reply1.empty()) {
      reply1 = frame.payload;
    } else if (announce1.empty()) {
      announce1 = frame.payload;
    }
  }
  ASSERT_FALSE(reply1.empty());
  ASSERT_FALSE(announce1.empty());
  const common::Bytes replay = announce1;
  member1->step({InFrame{0, std::move(reply1)}});
  member1->step({InFrame{0, std::move(announce1)}});
  ASSERT_EQ(member1->wants(), SessionWants::recv);
  // The channel's record counter has moved on: a verbatim replay of the
  // announce cannot authenticate again.
  member1->step({InFrame{0, replay}});
  ASSERT_EQ(member1->wants(), SessionWants::failed);
  EXPECT_FALSE(member1->status().ok());
}

TEST(SessionTest, UnexpectedMessageTypeFails) {
  StudyFixture fixture;
  auto member = fixture.make_member(1);
  std::vector<OutFrame> handshake = member->step({});
  ASSERT_EQ(handshake.size(), 1u);

  // The test plays leader with the tee primitives directly, so it can seal
  // a syntactically valid record of a type the member must refuse.
  GdoEnclave fake_leader(*fixture.platforms[0], 0);
  ASSERT_TRUE(
      fake_leader
          .provision_dataset(genome::BitPlanes(fixture.cohort.cases, 0, 40))
          .ok());
  auto channel = fake_leader.channel_to(trusted_module_measurement(),
                                        /*initiator=*/false);
  ASSERT_TRUE(channel->complete(handshake[0].payload).ok());
  member->step({InFrame{0, channel->handshake_message()}});
  ASSERT_EQ(member->wants(), SessionWants::recv);

  auto sealed = channel->seal(envelope(MsgType::summary_stats, {}));
  ASSERT_TRUE(sealed.ok());
  member->step({InFrame{0, std::move(sealed).take()}});
  ASSERT_EQ(member->wants(), SessionWants::failed);
  EXPECT_EQ(member->status().error().code, common::Errc::bad_message);
  EXPECT_NE(member->status().error().message.find("unexpected message type"),
            std::string::npos);
}

TEST(SessionTest, MemberHandshakeDeadlineExpires) {
  StudyFixture fixture;
  auto member = fixture.make_member(1);
  member->set_receive_timeout(std::chrono::milliseconds(50));
  const auto start = Clock::now();
  member->step({}, start);
  ASSERT_EQ(member->wants(), SessionWants::recv);
  const auto deadline = member->next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, start + std::chrono::milliseconds(50));
  // A tick before the deadline is ignored; one past it times the wait out.
  member->on_tick(start + std::chrono::milliseconds(10));
  EXPECT_EQ(member->wants(), SessionWants::recv);
  member->on_tick(start + std::chrono::milliseconds(60));
  ASSERT_EQ(member->wants(), SessionWants::failed);
  EXPECT_EQ(member->status().error().code, common::Errc::timeout);
  EXPECT_NE(member->status().error().message.find("in handshake"),
            std::string::npos);
}

TEST(SessionTest, MemberTransportClosedFails) {
  StudyFixture fixture;
  auto member = fixture.make_member(1);
  member->step({});
  ASSERT_EQ(member->wants(), SessionWants::recv);
  member->on_transport_closed(Clock::now());
  ASSERT_EQ(member->wants(), SessionWants::failed);
  EXPECT_EQ(member->status().error().code, common::Errc::state_violation);
  EXPECT_NE(member->status().error().message.find("mailbox closed"),
            std::string::npos);
}

TEST(SessionTest, LeaderHandshakeDeadlineMarksAllDead) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  leader->set_receive_timeout(std::chrono::milliseconds(50));
  const auto start = Clock::now();
  leader->step({}, start);
  ASSERT_EQ(leader->wants(), SessionWants::recv);
  leader->on_tick(start + std::chrono::milliseconds(60));
  leader->step({}, start + std::chrono::milliseconds(60));
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::timeout);
  EXPECT_NE(leader->status().error().message.find("unresponsive gdo(s): 1 2"),
            std::string::npos)
      << leader->status().error().to_string();
}

TEST(SessionTest, LeaderPeerLossDuringHandshakeFails) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  leader->step({});
  ASSERT_EQ(leader->wants(), SessionWants::recv);
  leader->on_peer_lost(1, Clock::now());
  leader->on_peer_lost(2, Clock::now());
  leader->step({});
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::timeout);
  EXPECT_NE(leader->status().error().message.find("unresponsive gdo(s): 1 2"),
            std::string::npos);
}

TEST(SessionTest, SilentMemberTimesOutAndSurvivorGetsAbortNotice) {
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  auto member1 = fixture.make_member(1);
  leader->set_receive_timeout(std::chrono::milliseconds(50));

  const auto start = Clock::now();
  std::vector<OutFrame> hs1 = member1->step({}, start);
  ASSERT_EQ(hs1.size(), 1u);
  std::vector<OutFrame> replies =
      leader->step({InFrame{1, hs1[0].payload}},
                   start);
  ASSERT_EQ(replies.size(), 1u);
  member1->step({InFrame{0, replies[0].payload}},
                start);
  ASSERT_EQ(member1->wants(), SessionWants::recv);

  // GDO 2 never handshakes; the leader's deadline passes, the lone
  // combination dies with it, and the survivor is told to stop waiting.
  leader->on_tick(start + std::chrono::milliseconds(60));
  std::vector<OutFrame> aborts =
      leader->step({}, start + std::chrono::milliseconds(60));
  ASSERT_EQ(leader->wants(), SessionWants::failed);
  EXPECT_EQ(leader->status().error().code, common::Errc::timeout);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].to_gdo, 1u);

  member1->step({InFrame{0, aborts[0].payload}});
  ASSERT_EQ(member1->wants(), SessionWants::failed);
  EXPECT_EQ(member1->status().error().code, common::Errc::aborted);
  EXPECT_NE(member1->status().error().message.find("study aborted by leader"),
            std::string::npos);
}

TEST(SessionTest, ProvisionFailureSurfacesAtStart) {
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x52});
  tee::Platform tiny(1, authority,
                     crypto::Csprng(std::array<std::uint8_t, 32>{1}),
                     /*epc_limit=*/64);
  genome::CohortSpec cohort_spec;
  cohort_spec.num_case = 64;
  cohort_spec.num_control = 64;
  cohort_spec.num_snps = 32;
  cohort_spec.seed = 5;
  const genome::Cohort cohort = genome::generate_cohort(cohort_spec);
  MemberSession member(tiny, 1, 0, genome::BitPlanes(cohort.cases, 0, 64));
  EXPECT_FALSE(member.provision_status().ok());
  EXPECT_EQ(member.provision_status().error().code,
            common::Errc::capacity_exceeded);
  member.step({});
  ASSERT_EQ(member.wants(), SessionWants::failed);
  EXPECT_EQ(member.status().error().code, common::Errc::capacity_exceeded);
}

TEST(SessionTest, FramesArrivingMidComputeAreBuffered) {
  // Both handshakes land before the leader's protocol body ever runs: the
  // session must queue them like a mailbox and consume them in order.
  StudyFixture fixture;
  auto leader = fixture.make_leader();
  auto member1 = fixture.make_member(1);
  auto member2 = fixture.make_member(2);
  std::vector<OutFrame> hs1 = member1->step({});
  std::vector<OutFrame> hs2 = member2->step({});
  leader->on_frame(1, hs1[0].payload, Clock::now());
  leader->on_frame(2, hs2[0].payload, Clock::now());
  const std::vector<OutFrame> replies = leader->step({});
  ASSERT_EQ(leader->wants(), SessionWants::recv);
  // Handshake replies for both members plus the first sealed requests.
  std::size_t to1 = 0;
  std::size_t to2 = 0;
  for (const OutFrame& frame : replies) {
    to1 += frame.to_gdo == 1 ? 1 : 0;
    to2 += frame.to_gdo == 2 ? 1 : 0;
  }
  EXPECT_GE(to1, 1u);
  EXPECT_GE(to2, 1u);
}

}  // namespace
}  // namespace gendpr::core
