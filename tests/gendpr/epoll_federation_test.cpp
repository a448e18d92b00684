// Federation over the socket hubs: every GDO is a sans-IO session on its
// own hub (loopback TCP), driven by one or more event-loop threads.
// However the sessions are sharded across loops, the results must be
// bit-identical to the in-process run over in-memory hubs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "gendpr/federation.hpp"
#include "gendpr/report.hpp"
#include "gendpr/session.hpp"
#include "gendpr/session_driver.hpp"
#include "json_parse.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "obs/observability.hpp"
#include "session_harness.hpp"
#include "tee/attestation.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort(std::size_t cases, std::size_t controls,
                           std::size_t snps, std::uint64_t seed) {
  genome::CohortSpec spec;
  spec.num_case = cases;
  spec.num_control = controls;
  spec.num_snps = snps;
  spec.seed = seed;
  return genome::generate_cohort(spec);
}

TEST(EpollFederationTest, EightGdoStudyOnOneThreadMatchesThreaded) {
  const genome::Cohort cohort = test_cohort(400, 300, 60, 321);

  FederationSpec spec;
  spec.num_gdos = 8;
  spec.seed = 17;
  // Keep the epoll run strictly single-threaded: no compute pool either.
  spec.parallel_combinations = false;

  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok()) << in_process.error().to_string();

  spec.transport = FederationSpec::TransportMode::epoll;
  const auto epoll = run_federated_study(cohort, spec);
  ASSERT_TRUE(epoll.ok()) << epoll.error().to_string();

  EXPECT_EQ(epoll.value().outcome.l_prime, in_process.value().outcome.l_prime);
  EXPECT_EQ(epoll.value().outcome.l_double_prime,
            in_process.value().outcome.l_double_prime);
  EXPECT_EQ(epoll.value().outcome.l_safe, in_process.value().outcome.l_safe);

  // The leader hub terminates every star link, so real traffic was metered.
  EXPECT_GT(epoll.value().network_bytes_total, 0u);
  EXPECT_GT(epoll.value().leader_bytes_received, 0u);
  EXPECT_FALSE(epoll.value().network_links.empty());
  // 7 members, two directions each.
  EXPECT_EQ(epoll.value().network_links.size(), 14u);
}

TEST(EpollFederationTest, MultiLoopShardingMatchesSingleLoop) {
  // Same G=8 study, sessions sharded across 3 event-loop threads: placement
  // must not leak into the protocol, so every selection is bit-identical.
  const genome::Cohort cohort = test_cohort(400, 300, 60, 321);

  FederationSpec spec;
  spec.num_gdos = 8;
  spec.seed = 17;
  spec.parallel_combinations = false;
  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok()) << in_process.error().to_string();

  obs::Observability observability;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.event_loops = 3;
  spec.obs = &observability;
  const auto sharded = run_federated_study(cohort, spec);
  ASSERT_TRUE(sharded.ok()) << sharded.error().to_string();

  EXPECT_EQ(sharded.value().outcome.l_prime,
            in_process.value().outcome.l_prime);
  EXPECT_EQ(sharded.value().outcome.l_double_prime,
            in_process.value().outcome.l_double_prime);
  EXPECT_EQ(sharded.value().outcome.l_safe, in_process.value().outcome.l_safe);
  EXPECT_EQ(sharded.value().network_links.size(), 14u);
  EXPECT_EQ(observability.metrics.gauge("net.event_loops"), 3.0);
}

TEST(EpollFederationTest, UringModeRunsTheEpollTransport) {
  // TransportMode::uring survives only as a name: the study runs on the
  // epoll hubs and says so, and GENDPR_TRANSPORT=uring is an unknown value
  // that keeps the spec's transport.
  const genome::Cohort cohort = test_cohort(150, 150, 40, 654);
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok()) << in_process.error().to_string();

  obs::Observability observability;
  spec.obs = &observability;
  spec.transport = FederationSpec::TransportMode::uring;
  const auto uring = run_federated_study(cohort, spec);
  ASSERT_TRUE(uring.ok()) << uring.error().to_string();
  EXPECT_EQ(uring.value().outcome.l_safe, in_process.value().outcome.l_safe);
  EXPECT_EQ(observability.metrics.label("net.transport"), "epoll");

  obs::Observability env_observability;
  spec.obs = &env_observability;
  spec.transport = FederationSpec::TransportMode::in_process;
  ASSERT_EQ(::setenv("GENDPR_TRANSPORT", "uring", 1), 0);
  const auto env_uring = run_federated_study(cohort, spec);
  ::unsetenv("GENDPR_TRANSPORT");
  ASSERT_TRUE(env_uring.ok()) << env_uring.error().to_string();
  EXPECT_EQ(env_observability.metrics.label("net.transport"), "in_process");
}

TEST(EpollFederationTest, EventLoopsEnvOverrideShardsTheStudy) {
  const genome::Cohort cohort = test_cohort(150, 150, 40, 654);
  FederationSpec spec;
  spec.num_gdos = 4;
  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok());

  obs::Observability observability;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.obs = &observability;
  ASSERT_EQ(::setenv("GENDPR_EVENT_LOOPS", "2", 1), 0);
  const auto sharded = run_federated_study(cohort, spec);
  ::unsetenv("GENDPR_EVENT_LOOPS");
  ASSERT_TRUE(sharded.ok()) << sharded.error().to_string();
  EXPECT_EQ(sharded.value().outcome.l_safe, in_process.value().outcome.l_safe);
  EXPECT_EQ(observability.metrics.gauge("net.event_loops"), 2.0);
}

TEST(EpollFederationTest, TransportEnvOverrideSelectsEpoll) {
  const genome::Cohort cohort = test_cohort(150, 150, 40, 654);
  FederationSpec spec;
  spec.num_gdos = 3;

  spec.transport = FederationSpec::TransportMode::in_process;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok());

  ASSERT_EQ(::setenv("GENDPR_TRANSPORT", "epoll", 1), 0);
  const auto epoll = run_federated_study(cohort, spec);
  ::unsetenv("GENDPR_TRANSPORT");
  ASSERT_TRUE(epoll.ok()) << epoll.error().to_string();
  EXPECT_EQ(epoll.value().outcome.l_safe, in_process.value().outcome.l_safe);
}

TEST(EpollFederationTest, ObservabilityAndTimingsSurviveTheEpollPath) {
  const genome::Cohort cohort = test_cohort(150, 150, 40, 777);
  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_GT(result.value().timings.total_ms, 0.0);
  EXPECT_GT(result.value().epc_peak_leader, 0u);
  // The member sessions ran for real: their request counters registered.
  bool member_counter = false;
  for (std::uint32_t g = 0; g < 3; ++g) {
    member_counter = member_counter ||
                     observability.metrics.counter(
                         "member." + std::to_string(g) + ".requests") > 0;
  }
  EXPECT_TRUE(member_counter);
}

TEST(EpollFederationTest, BroadcastSerializesEachMessageExactlyOnce) {
  // Serialize-once conservation over a G=8 star: every sealed record is
  // either a message's first seal (wire.serializations) or a fan-out reuse
  // of an already-staged body (wire.fanout_reuses). A regression that
  // re-serializes per recipient breaks the equality; one that re-stages per
  // broadcast breaks the reuse lower bound.
  const genome::Cohort cohort = test_cohort(400, 300, 60, 321);

  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 8;
  spec.seed = 17;
  spec.parallel_combinations = false;
  spec.transport = FederationSpec::TransportMode::epoll;
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  const double serializations = static_cast<double>(
      observability.metrics.counter("wire.serializations"));
  const double reuses =
      static_cast<double>(observability.metrics.counter("wire.fanout_reuses"));
  const double records =
      static_cast<double>(observability.metrics.counter("wire.records_sent"));
  EXPECT_GT(serializations, 0.0);
  EXPECT_GT(records, 0.0);
  // Conservation: first seals plus reuses account for every sealed record.
  EXPECT_EQ(serializations + reuses, records);
  // Serialize-once means strictly fewer serializations than records: the
  // announce, phase-1, phase-2 tile, and phase-3 broadcasts each reach the
  // 7 members off ONE staging (6 reuses apiece beyond the first seal).
  EXPECT_LT(serializations, records);
  EXPECT_GE(reuses, 3.0 * (8 - 2));

  EXPECT_GT(observability.metrics.counter("wire.writev_batches"), 0.0);
}

TEST(EpollFederationTest, SilentMemberTimesOutOverEpoll) {
  // Leader expects 3 GDOs; only GDO 1 ever dials. The leader's session
  // deadline fires through the driver's loop timer, the study aborts with a
  // timeout naming GDO 2, and the survivor receives the abort notice over
  // its socket instead of hanging — all on this one thread.
  const genome::Cohort cohort = test_cohort(120, 120, 30, 42);
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x61});
  tee::Platform leader_platform(
      1, authority, crypto::Csprng(std::array<std::uint8_t, 32>{1}));
  tee::Platform member_platform(
      2, authority, crypto::Csprng(std::array<std::uint8_t, 32>{2}));

  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto leader_hub = net::EpollHub::create(loop, node_id_of(0), 0);
  auto member_hub = net::EpollHub::create(loop, node_id_of(1), 0);
  ASSERT_TRUE(leader_hub.ok());
  ASSERT_TRUE(member_hub.ok());

  LeaderSession leader(leader_platform, 0, 3,
                       genome::BitPlanes(cohort.cases, 0, 60),
                       genome::BitPlanes(cohort.controls), StudyConfig{},
                       CollusionPolicy::none());
  leader.set_receive_timeout(std::chrono::milliseconds(300));
  MemberSession member(member_platform, 1, 0,
                       genome::BitPlanes(cohort.cases, 60, 120));

  SessionDriver leader_driver(loop, *leader_hub.value(), leader);
  SessionDriver member_driver(loop, *member_hub.value(), member);
  member_hub.value()->connect_peer(node_id_of(0), "127.0.0.1",
                                   leader_hub.value()->port());
  member_driver.start();
  leader_driver.start();
  loop.run_until(
      [&] { return leader_driver.finished() && member_driver.finished(); });

  ASSERT_EQ(leader.wants(), SessionWants::failed);
  EXPECT_EQ(leader.status().error().code, common::Errc::timeout);
  EXPECT_NE(leader.status().error().message.find("2"), std::string::npos)
      << leader.status().error().to_string();
  ASSERT_EQ(member.wants(), SessionWants::failed);
  EXPECT_EQ(member.status().error().code, common::Errc::aborted)
      << member.status().error().to_string();
}

/// Platforms for GDOs 0..count-1 under one quoting authority.
std::vector<std::unique_ptr<tee::Platform>> make_platforms(
    std::uint32_t count, tee::QuotingAuthority& authority) {
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  for (std::uint32_t g = 0; g < count; ++g) {
    platforms.push_back(std::make_unique<tee::Platform>(
        g + 1, authority,
        crypto::Csprng(std::array<std::uint8_t, 32>{
            static_cast<std::uint8_t>(g + 1)})));
  }
  return platforms;
}

TEST(TcpFederationTest, StudyOverRealSocketsMatchesInProcess) {
  // Hand-assembled federation: one EpollHub per GDO "machine", members dial
  // the leader over loopback TCP. The selection must equal an in-process
  // run over the same cohort, and the run report must work over sockets.
  const genome::Cohort cohort = test_cohort(300, 300, 80, 55);
  constexpr std::uint32_t kGdos = 3;
  const auto ranges = genome::equal_partition(300, kGdos);
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x71});
  auto platforms = make_platforms(kGdos, authority);

  obs::Observability observability;
  LeaderSession leader(*platforms[0], 0, kGdos,
                       genome::BitPlanes(cohort.cases, ranges[0].first,
                                         ranges[0].second),
                       genome::BitPlanes(cohort.controls), StudyConfig{},
                       CollusionPolicy::none());
  leader.set_observability(&observability);
  std::vector<std::unique_ptr<MemberSession>> members;
  for (std::uint32_t g = 1; g < kGdos; ++g) {
    members.push_back(std::make_unique<MemberSession>(
        *platforms[g], g, 0,
        genome::BitPlanes(cohort.cases, ranges[g].first, ranges[g].second)));
    members.back()->set_observability(&observability);
  }
  StudyResult tcp_result;
  {
    SessionHarness harness(0, SessionHarness::Transport::epoll);
    harness.add(0, leader);
    for (std::uint32_t g = 1; g < kGdos; ++g) harness.add(g, *members[g - 1]);
    harness.run();
    ASSERT_TRUE(leader.status().ok()) << leader.status().error().to_string();
    tcp_result = leader.result();
    tcp_result.network_bytes_total = harness.hub(0).meter().total_bytes();
    tcp_result.network_links = harness.hub(0).meter().snapshot();
  }
  for (const auto& member : members) {
    EXPECT_TRUE(member->status().ok()) << member->status().error().to_string();
    EXPECT_TRUE(member->enclave().study_complete());
  }

  FederationSpec spec;
  spec.num_gdos = kGdos;
  const auto in_process = run_federated_study(cohort, spec);
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(tcp_result.outcome.l_prime, in_process.value().outcome.l_prime);
  EXPECT_EQ(tcp_result.outcome.l_double_prime,
            in_process.value().outcome.l_double_prime);
  EXPECT_EQ(tcp_result.outcome.l_safe, in_process.value().outcome.l_safe);
  EXPECT_GT(tcp_result.network_bytes_total, 0u);

  // Per-link byte counts from the leader's hub meter, the leader's EPC
  // peak, and a trace with every protocol phase.
  ReportContext context;
  context.obs = &observability;
  context.transport = "tcp";
  const obs::JsonValue report = make_run_report(tcp_result, context);
  const auto parsed = obs::parse_json(report.dump());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().find("transport")->as_string(), "tcp");
  const obs::JsonValue* network_section = parsed.value().find("network");
  ASSERT_NE(network_section, nullptr);
  ASSERT_FALSE(network_section->find("links")->as_array().empty());
  for (const auto& link : network_section->find("links")->as_array()) {
    EXPECT_GT(link.find("bytes")->as_number(), 0.0);
  }
  const obs::JsonValue* epc_section = parsed.value().find("epc");
  ASSERT_NE(epc_section, nullptr);
  ASSERT_EQ(epc_section->find("per_gdo")->as_array().size(), kGdos);
  EXPECT_GT(
      epc_section->find("per_gdo")->as_array()[0].find("peak_bytes")
          ->as_number(),
      0.0);
  const auto spans =
      obs::spans_from_json(*parsed.value().find("trace"));
  ASSERT_TRUE(spans.ok());
  for (const char* phase : {"phase.maf", "phase.ld", "phase.lr"}) {
    EXPECT_EQ(std::count_if(spans.value().begin(), spans.value().end(),
                            [phase](const obs::Span& span) {
                              return span.name == phase;
                            }),
              1)
        << phase;
  }
}

TEST(TcpFederationTest, MemberSafeSetsMatchLeader) {
  const genome::Cohort cohort = test_cohort(200, 200, 50, 66);
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x72});
  auto platforms = make_platforms(2, authority);
  LeaderSession leader(*platforms[0], 0, 2,
                       genome::BitPlanes(cohort.cases, 0, 100),
                       genome::BitPlanes(cohort.controls), StudyConfig{},
                       CollusionPolicy::none());
  MemberSession member(*platforms[1], 1, 0,
                       genome::BitPlanes(cohort.cases, 100, 200));
  SessionHarness harness(0, SessionHarness::Transport::epoll);
  harness.add(0, leader);
  harness.add(1, member);
  harness.run();
  ASSERT_TRUE(leader.status().ok()) << leader.status().error().to_string();
  // The member's broadcast-received safe set equals the leader's outcome.
  EXPECT_EQ(member.enclave().safe_snps(), leader.result().outcome.l_safe);
}

TEST(TcpFederationTest, KilledMemberAbortsStudyPromptly) {
  // Three GDOs over real sockets; GDO 2's whole hub dies right after the
  // attested handshake (machine crash). The leader's hub notices the
  // dropped connection and the study aborts well before the 10 s deadline,
  // with a timeout naming the dead peer; the surviving member gets an
  // abort notice instead of hanging.
  const genome::Cohort cohort = test_cohort(300, 200, 50, 77);
  tee::QuotingAuthority authority(std::array<std::uint8_t, 32>{0x73});
  auto platforms = make_platforms(3, authority);
  LeaderSession leader(*platforms[0], 0, 3,
                       genome::BitPlanes(cohort.cases, 0, 100),
                       genome::BitPlanes(cohort.controls), StudyConfig{},
                       CollusionPolicy::none());
  leader.set_receive_timeout(std::chrono::milliseconds(10000));
  MemberSession survivor(*platforms[1], 1, 0,
                         genome::BitPlanes(cohort.cases, 100, 200));
  survivor.set_receive_timeout(std::chrono::milliseconds(10000));
  ScriptedMember doomed(
      *platforms[2], 2, 0, genome::BitPlanes(cohort.cases, 200, 300),
      ScriptedMember::silent_at(ScriptedMember::Stop::after_handshake));

  SessionHarness harness(0, SessionHarness::Transport::epoll);
  harness.add(0, leader);
  harness.add(1, survivor);
  harness.add(2, doomed);
  harness.on_finished(2, [&] { harness.kill_hub(2); });
  const auto start = std::chrono::steady_clock::now();
  harness.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(doomed.status().ok()) << doomed.status().error().to_string();
  ASSERT_FALSE(leader.status().ok());
  EXPECT_EQ(leader.status().error().code, common::Errc::timeout);
  EXPECT_NE(leader.status().error().message.find("2"), std::string::npos)
      << leader.status().error().to_string();
  // Peer-loss detection beats the deadline by a wide margin.
  EXPECT_LT(elapsed, std::chrono::seconds(8));
  ASSERT_FALSE(survivor.status().ok());
  EXPECT_EQ(survivor.status().error().code, common::Errc::aborted)
      << survivor.status().error().to_string();
}

}  // namespace
}  // namespace gendpr::core
