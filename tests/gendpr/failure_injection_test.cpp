// Failure injection at the federation level: a compromised/malfunctioning
// host between the enclaves. Everything the untrusted side can mutate -
// handshakes, records, message ordering - must surface as a clean protocol
// error at the leader, never as a wrong selection.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>

#include "genome/cohort.hpp"
#include "ld_phase.hpp"
#include "obs/observability.hpp"
#include "session_harness.hpp"

namespace gendpr::core {
namespace {

struct LeaderFixture {
  genome::Cohort cohort;
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x51}};
  tee::Platform leader_platform{
      1, authority, crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform member_platform{
      2, authority, crypto::Csprng(std::array<std::uint8_t, 32>{2})};

  LeaderFixture() {
    genome::CohortSpec spec;
    spec.num_case = 200;
    spec.num_control = 200;
    spec.num_snps = 60;
    spec.seed = 31;
    cohort = genome::generate_cohort(spec);
  }

  /// The leader session (GDO 0) of a two-GDO study.
  std::unique_ptr<LeaderSession> make_leader(
      const StudyConfig& config = StudyConfig{}) {
    return std::make_unique<LeaderSession>(
        leader_platform, 0, 2, genome::BitPlanes(cohort.cases, 0, 100),
        genome::BitPlanes(cohort.controls), config, CollusionPolicy::none());
  }

  /// A scripted member `gdo` holding the second half of the cases.
  std::unique_ptr<ScriptedMember> make_member(
      ScriptedMember::Script script, std::uint32_t gdo = 1) {
    return std::make_unique<ScriptedMember>(
        member_platform, gdo, 0, genome::BitPlanes(cohort.cases, 100, 200),
        std::move(script));
  }

  /// Runs the leader against `member` (if any) and returns its outcome.
  common::Status run(LeaderSession& leader, ScriptedMember* member,
                     std::uint32_t member_gdo = 1) {
    SessionHarness harness;
    harness.add(0, leader);
    if (member != nullptr) harness.add(member_gdo, *member);
    harness.run();
    return leader.status();
  }
};

/// Script that answers the announce with `reply` (a sealed record).
ScriptedMember::Script replying(ScriptedMember::Reply reply) {
  ScriptedMember::Script script;
  script.reply = std::move(reply);
  return script;
}

TEST(FailureInjectionTest, GarbageHandshakeRejected) {
  LeaderFixture f;
  auto leader = f.make_leader();
  ScriptedMember::Script script;
  script.raw_handshake = common::Bytes{0xde, 0xad, 0xbe, 0xef};
  auto attacker = f.make_member(std::move(script));
  const common::Status result = f.run(*leader, attacker.get());
  ASSERT_FALSE(result.ok());
  // Truncated/garbled handshake -> bad_message or attestation failure.
  EXPECT_TRUE(result.error().code == common::Errc::bad_message ||
              result.error().code == common::Errc::attestation_rejected)
      << result.error().to_string();
}

TEST(FailureInjectionTest, HandshakeFromUnknownNodeRejected) {
  LeaderFixture f;
  auto leader = f.make_leader();
  ScriptedMember::Script script;
  script.raw_handshake = common::Bytes{0x01};
  auto attacker = f.make_member(std::move(script), /*gdo=*/6);
  const common::Status result = f.run(*leader, attacker.get(), 6);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::unknown_peer);
}

TEST(FailureInjectionTest, TamperedRecordDetected) {
  LeaderFixture f;
  auto leader = f.make_leader();
  // An honest member, but its host flips a bit in its first protocol
  // record before delivery (simulating a compromised host).
  auto member = f.make_member(
      replying([](GdoEnclave& enclave, tee::SecureChannel& channel) {
        common::Bytes record =
            channel
                .seal(envelope(MsgType::summary_stats,
                               serialize(enclave.make_summary_stats())))
                .value();
        record[record.size() / 2] ^= 0x01;
        return record;
      }));
  const common::Status result = f.run(*leader, member.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::decrypt_failed);
}

TEST(FailureInjectionTest, WrongMessageTypeRejected) {
  LeaderFixture f;
  auto leader = f.make_leader();
  // Replies with a phase-3 message where summary stats are expected.
  auto member = f.make_member(
      replying([](GdoEnclave&, tee::SecureChannel& channel) {
        return channel
            .seal(envelope(MsgType::phase3_result,
                           serialize(Phase3Result{{1, 2}})))
            .value();
      }));
  const common::Status result = f.run(*leader, member.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::state_violation);
}

TEST(FailureInjectionTest, OversizedSummaryRejected) {
  LeaderFixture f;
  auto leader = f.make_leader();
  // Claims counts over the wrong number of SNPs.
  auto member = f.make_member(
      replying([](GdoEnclave&, tee::SecureChannel& channel) {
        SummaryStats bogus;
        bogus.case_counts.assign(9999, 1);
        bogus.n_case = 100;
        return channel.seal(envelope(MsgType::summary_stats, serialize(bogus)))
            .value();
      }));
  const common::Status result = f.run(*leader, member.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::bad_message);
}

TEST(FailureInjectionTest, ForgedLdWindowCountRejected) {
  // An honest summary, then an LD window whose first real count claims more
  // co-carriers than either SNP has: the leader must reject it against the
  // member's own phase-1 counts, naming the member.
  LeaderFixture f;
  auto leader = f.make_leader();
  ScriptedMember::Script script = ScriptedMember::until_summary();
  script.after_phase1 = [](GdoEnclave& enclave, tee::SecureChannel& channel) {
    const genome::TilePlan plan = enclave.ld_plan();
    LdWindow window = enclave.make_ld_window(plan.begin(0), plan.end(0), 0);
    window.counts[kLdWindow] = 1000000;  // rank 1 with rank 0
    return channel.seal(envelope(MsgType::ld_window, serialize(window)))
        .value();
  };
  auto member = f.make_member(std::move(script));
  const common::Status result = f.run(*leader, member.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::bad_message);
  EXPECT_NE(result.error().message.find("gdo 1"), std::string::npos)
      << result.error().to_string();
}

TEST(FailureInjectionTest, MissingMomentsAbortLdPhase) {
  // A member that stops answering moments requests must never let zero
  // moments skew the aggregate: it is declared dead, and with no other
  // combination to fall back on the phase aborts with a timeout naming it.
  LeaderFixture f;
  GdoEnclave leader_enclave(f.leader_platform, 0);
  ASSERT_TRUE(leader_enclave
                  .provision_dataset(genome::BitPlanes(f.cohort.cases, 0, 100))
                  .ok());
  // ld_cutoff 1: every pair is dependent, so the walk's anchor holds past
  // the LD window and the leader must fetch pairs beyond it.
  StudyConfig config;
  config.ld_cutoff = 1.0;
  Coordinator coordinator(leader_enclave, genome::BitPlanes(f.cohort.controls),
                          2, config, CollusionPolicy::none());
  SummaryStats member_stats;
  member_stats.case_counts.assign(f.cohort.cases.num_snps(), 5);
  member_stats.n_case = 100;
  ASSERT_TRUE(coordinator.add_summary(1, member_stats).ok());
  ASSERT_TRUE(coordinator.run_maf_phase().ok());

  std::size_t fetches = 0;
  auto silent_fetch = [&fetches](const MomentsRequest&,
                                 const std::vector<std::uint32_t>&) {
    ++fetches;
    return MemberCounts{};  // no responses
  };
  const auto result = run_ld_phase(
      coordinator, {{1, uniform_windows(coordinator, 1)}}, silent_fetch);
  EXPECT_EQ(fetches, 1u);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::timeout);
  EXPECT_NE(result.error().message.find("1"), std::string::npos)
      << result.error().to_string();
  EXPECT_EQ(coordinator.dead_gdos(), (std::set<std::uint32_t>{1}));
}

TEST(FailureInjectionTest, UnansweredMomentsRequestTimesOutStudy) {
  // The member sends its honest LD window, then never answers a moments
  // request. The leader waits on the request's answer alone, and its
  // deadline ends the study with a timeout naming the member.
  LeaderFixture f;
  StudyConfig config;
  config.ld_cutoff = 1.0;  // the walk's anchor holds past the LD window
  obs::Observability observability;  // outlives the leader's open spans
  auto leader = f.make_leader(config);
  leader->set_observability(&observability);
  leader->set_receive_timeout(std::chrono::milliseconds(250));
  ScriptedMember::Script script = ScriptedMember::until_summary();
  script.after_phase1 = [](GdoEnclave& enclave, tee::SecureChannel& channel) {
    const genome::TilePlan plan = enclave.ld_plan();
    LdWindow window = enclave.make_ld_window(plan.begin(0), plan.end(0), 0);
    return channel.seal(envelope(MsgType::ld_window, serialize(window)))
        .value();
  };
  auto member = f.make_member(std::move(script));
  const auto start = std::chrono::steady_clock::now();
  const common::Status result = f.run(*leader, member.get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::timeout);
  EXPECT_NE(result.error().message.find("unresponsive gdo(s): 1"),
            std::string::npos)
      << result.error().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(observability.metrics.counter("ld.window_tiles"), 1u);
  EXPECT_EQ(observability.metrics.counter("ld.round_trips"), 1u);
}

// ---------------------------------------------------------------------------
// Liveness: deadlines, dead-GDO degraded mode, abort notices. A GDO that
// stops responding mid-phase must terminate the study within the configured
// deadline (Errc::timeout naming the peer) - or, when the collusion policy
// leaves a combination without it, let the survivors finish.
// ---------------------------------------------------------------------------

TEST(LivenessTest, MissingMemberTimesOutHandshake) {
  LeaderFixture f;
  auto leader = f.make_leader();
  leader->set_receive_timeout(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  const common::Status result = f.run(*leader, nullptr);  // no member 1
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::timeout);
  EXPECT_NE(result.error().message.find("1"), std::string::npos)
      << result.error().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

TEST(LivenessTest, SilentMemberAfterSummaryTimesOutStudy) {
  LeaderFixture f;
  auto leader = f.make_leader();
  leader->set_receive_timeout(std::chrono::milliseconds(250));
  auto member = f.make_member(ScriptedMember::until_summary());
  const auto start = std::chrono::steady_clock::now();
  const common::Status result = f.run(*leader, member.get());
  EXPECT_TRUE(member->status().ok()) << member->status().error().to_string();
  ASSERT_FALSE(result.ok());
  // The sole combination needs GDO 1's moments: its silence kills the study.
  EXPECT_EQ(result.error().code, common::Errc::timeout);
  EXPECT_NE(result.error().message.find("1"), std::string::npos)
      << result.error().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

/// Three-GDO federation with leader GDO 0, one honest member (GDO 1) and
/// one member that crashes after submitting its summary (GDO 2).
struct ThreeGdoFixture {
  genome::Cohort cohort;
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x52}};
  tee::Platform platform0{1, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform platform1{2, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{2})};
  tee::Platform platform2{3, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{3})};

  ThreeGdoFixture() {
    genome::CohortSpec spec;
    spec.num_case = 300;
    spec.num_control = 200;
    spec.num_snps = 60;
    spec.seed = 31;
    cohort = genome::generate_cohort(spec);
  }

  /// Runs the study with GDO 2 crashing after its summary; returns the
  /// leader's outcome and leaves the honest member's state in `honest`.
  common::Status run(const CollusionPolicy& policy,
                     std::chrono::milliseconds member_timeout,
                     std::unique_ptr<MemberSession>& honest,
                     std::unique_ptr<LeaderSession>& leader) {
    leader = std::make_unique<LeaderSession>(
        platform0, 0, 3, genome::BitPlanes(cohort.cases, 0, 100),
        genome::BitPlanes(cohort.controls), StudyConfig{}, policy);
    leader->set_receive_timeout(std::chrono::milliseconds(250));
    honest = std::make_unique<MemberSession>(
        platform1, 1, 0, genome::BitPlanes(cohort.cases, 100, 200));
    honest->set_receive_timeout(member_timeout);
    ScriptedMember crashing(platform2, 2, 0,
                            genome::BitPlanes(cohort.cases, 200, 300),
                            ScriptedMember::until_summary());
    SessionHarness harness;
    harness.add(0, *leader);
    harness.add(1, *honest);
    harness.add(2, crashing);
    harness.run();
    return leader->status();
  }
};

TEST(LivenessTest, RedundantCombinationSurvivesDeadGdo) {
  ThreeGdoFixture f;
  // f = 1: combinations {0,1}, {0,2}, {1,2} - losing GDO 2 leaves {0,1}.
  std::unique_ptr<MemberSession> honest;
  std::unique_ptr<LeaderSession> leader;
  const common::Status result =
      f.run(CollusionPolicy::fixed(1), std::chrono::milliseconds(5000),
            honest, leader);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(leader->result().dead_gdos, (std::vector<std::uint32_t>{2}));
  ASSERT_TRUE(honest->status().ok()) << honest->status().error().to_string();
  // The surviving member converges on the same safe set as the leader.
  EXPECT_TRUE(honest->enclave().study_complete());
  EXPECT_EQ(honest->enclave().safe_snps(), leader->result().outcome.l_safe);
}

TEST(LivenessTest, SurvivingMemberReceivesAbortNotice) {
  ThreeGdoFixture f;
  // No redundancy: the single combination {0,1,2} dies with GDO 2, and the
  // leader must tell the surviving member instead of leaving it waiting.
  std::unique_ptr<MemberSession> honest;
  std::unique_ptr<LeaderSession> leader;
  const common::Status result =
      f.run(CollusionPolicy::none(), std::chrono::milliseconds(10000), honest,
            leader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::timeout);
  EXPECT_NE(result.error().message.find("2"), std::string::npos)
      << result.error().to_string();
  ASSERT_FALSE(honest->status().ok());
  EXPECT_EQ(honest->status().error().code, common::Errc::aborted)
      << honest->status().error().to_string();
}

TEST(LivenessTest, RefusedSendReachesTheSessionAsPeerLoss) {
  // A member whose hub never linked to the leader: the hub refuses the
  // handshake and has no loss of its own to report, so only the driver can
  // tell the session that its leader is out of reach.
  LeaderFixture f;
  MemberSession member(f.member_platform, 1, 0,
                       genome::BitPlanes(f.cohort.cases, 100, 200));
  net::EventLoop loop;
  net::MemoryHub::Registry registry;
  net::MemoryHub hub(registry, loop, node_id_of(1));
  SessionDriver driver(loop, hub, member);
  driver.start();
  ASSERT_TRUE(driver.finished());
  EXPECT_EQ(member.status().error().code, common::Errc::unknown_peer);
  EXPECT_NE(member.status().error().message.find("leader gdo 0"),
            std::string::npos)
      << member.status().error().to_string();
}

}  // namespace
}  // namespace gendpr::core
