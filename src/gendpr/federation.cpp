#include "gendpr/federation.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/csprng.hpp"
#include "gendpr/session_driver.hpp"
#include "net/epoll_hub.hpp"
#include "net/event_loop.hpp"
#include "net/hub.hpp"
#include "net/memory_hub.hpp"
#include "tee/attestation.hpp"

namespace gendpr::core {

using common::Result;

namespace {

/// Resolves the effective transport: GENDPR_TRANSPORT overrides the spec.
FederationSpec::TransportMode transport_mode_of(const FederationSpec& spec) {
  const char* env = std::getenv("GENDPR_TRANSPORT");
  if (env != nullptr) {
    if (std::strcmp(env, "epoll") == 0) {
      return FederationSpec::TransportMode::epoll;
    }
    if (std::strcmp(env, "in_process") == 0) {
      return FederationSpec::TransportMode::in_process;
    }
    common::log_warn("federation", "unknown GENDPR_TRANSPORT value '", env,
                     "'; using the spec's transport");
  }
  return spec.transport;
}

/// Creates the hub for `transport` on `loop`: in-memory for in_process,
/// otherwise an epoll socket hub listening on loopback.
Result<std::unique_ptr<net::Hub>> make_hub(FederationSpec::TransportMode mode,
                                           net::MemoryHub::Registry& registry,
                                           net::EventLoop& loop,
                                           net::NodeId node) {
  if (mode == FederationSpec::TransportMode::in_process) {
    return std::unique_ptr<net::Hub>(
        std::make_unique<net::MemoryHub>(registry, loop, node));
  }
  auto hub = net::EpollHub::create(loop, node, 0);
  if (!hub.ok()) return hub.error();
  return std::unique_ptr<net::Hub>(std::move(hub).take());
}

const char* transport_label(FederationSpec::TransportMode mode) {
  switch (mode) {
    case FederationSpec::TransportMode::in_process:
      return "in_process";
    case FederationSpec::TransportMode::epoll:
    case FederationSpec::TransportMode::uring:
      return "epoll";
  }
  return "?";
}

/// Runs the whole federation as sans-IO sessions on one event loop on the
/// calling thread: one hub per GDO (members dial the leader - the star
/// topology the protocol already assumes), one SessionDriver per session.
/// In process the hubs are in-memory; over sockets they are epoll hubs on
/// loopback TCP. Fills `member_compute_ms` for the distributed-wall-time
/// model, which stands in for one host per GDO.
Result<StudyResult> run_sessions(
    const genome::Cohort& cohort, const FederationSpec& spec,
    FederationSpec::TransportMode transport,
    std::vector<std::unique_ptr<tee::Platform>>& platforms,
    std::uint32_t leader_gdo,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    common::ThreadPool* pool, obs::SpanId study_span,
    std::chrono::milliseconds receive_timeout,
    std::vector<double>& member_compute_ms) {
  if (transport == FederationSpec::TransportMode::uring) {
    common::log_warn("federation",
                     "the io_uring transport is gone; running epoll");
    transport = FederationSpec::TransportMode::epoll;
  }
  net::EventLoop loop;
  if (!loop.valid()) {
    return common::make_error(common::Errc::io_error, "epoll_create1 failed");
  }
  net::MemoryHub::Registry registry;

  auto leader_hub_result =
      make_hub(transport, registry, loop, node_id_of(leader_gdo));
  if (!leader_hub_result.ok()) return leader_hub_result.error();
  std::unique_ptr<net::Hub> leader_hub = std::move(leader_hub_result).take();

  // Provisioning: every GDO's planes come straight from its row range,
  // each build split across the study's pool. No session runs yet, so the
  // pool has the host to itself.
  obs::ScopedSpan provision_span(obs::recorder_of(spec.obs), "step.provision",
                                 study_span);
  const auto case_planes = [&](std::uint32_t gdo) {
    return genome::BitPlanes(cohort.cases, ranges[gdo].first,
                             ranges[gdo].second, pool);
  };
  LeaderSession leader(
      *platforms[leader_gdo], leader_gdo, spec.num_gdos,
      case_planes(leader_gdo),
      genome::BitPlanes(cohort.controls, 0,
                        cohort.controls.num_individuals(), pool),
      spec.config, spec.policy);
  leader.set_receive_timeout(receive_timeout);
  leader.set_observability(spec.obs, study_span);
  leader.set_pool(pool);

  std::vector<std::uint32_t> member_gdos;
  std::vector<std::unique_ptr<net::Hub>> member_hubs;
  std::vector<std::unique_ptr<MemberSession>> members;
  for (std::uint32_t g = 0; g < spec.num_gdos; ++g) {
    if (g == leader_gdo) continue;
    auto hub = make_hub(transport, registry, loop, node_id_of(g));
    if (!hub.ok()) return hub.error();
    member_gdos.push_back(g);
    member_hubs.push_back(std::move(hub).take());
    members.push_back(std::make_unique<MemberSession>(
        *platforms[g], g, leader_gdo, case_planes(g)));
    members.back()->set_receive_timeout(receive_timeout);
    members.back()->set_observability(spec.obs);
  }
  // A member that failed to provision (EPC limit) would never handshake and
  // the leader would wait forever - surface the error up front.
  for (const auto& member : members) {
    if (!member->provision_status().ok()) {
      return member->provision_status().error();
    }
  }
  provision_span.end();

  SessionDriver leader_driver(loop, *leader_hub, leader);
  std::vector<std::unique_ptr<SessionDriver>> member_drivers;
  member_drivers.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    member_drivers.push_back(
        std::make_unique<SessionDriver>(loop, *member_hubs[i], *members[i]));
  }

  // A member whose own session fails while the leader still runs (EPC
  // exhausted building its LD windows, say) hangs up on the leader, as its
  // host's dropped connection would, so the leader declares it dead instead
  // of waiting on it; its error is then the study's root cause. A member
  // told to stop by the leader's abort notice is not one. The loss reaches
  // the leader as a posted task, outside the member's own dispatch.
  std::vector<char> failed_first(member_drivers.size(), 0);
  for (std::size_t i = 0; i < member_drivers.size(); ++i) {
    member_drivers[i]->set_on_finished([&, i] {
      const common::Status& status = members[i]->status();
      if (!status.ok() && status.error().code != common::Errc::aborted &&
          !leader_driver.finished()) {
        failed_first[i] = 1;
        loop.post([&, peer = node_id_of(member_gdos[i])] {
          if (!leader_driver.finished()) leader_driver.on_peer_lost(peer);
        });
      }
    });
  }
  // When the leader fails, surviving members normally learn it from the
  // abort notice; a member whose connection (or handshake) never came up
  // would wait forever with no timeout configured. Give the notices half a
  // second to flush, then force the stragglers' transports closed.
  leader_driver.set_on_finished([&] {
    if (leader.status().ok()) return;
    loop.add_timer_after(std::chrono::milliseconds{500}, [&] {
      for (auto& driver : member_drivers) {
        if (!driver->finished()) driver->close();
      }
    });
  });

  // Members first: their dials buffer the attestation handshakes, which
  // flush as soon as the leader's listener accepts.
  for (std::size_t i = 0; i < member_drivers.size(); ++i) {
    member_hubs[i]->connect_peer(node_id_of(leader_gdo), "127.0.0.1",
                                 leader_hub->port());
    member_drivers[i]->start();
  }
  leader_driver.start();

  const auto all_finished = [&] {
    return leader_driver.finished() &&
           std::all_of(member_drivers.begin(), member_drivers.end(),
                       [](const auto& driver) { return driver->finished(); });
  };
  loop.run_until(all_finished);
  if (!all_finished()) {
    // run_until gave up: nothing queued, timed or watched is left that
    // could bring a frame to the sessions still waiting.
    std::string waiting = leader_driver.finished()
                              ? ""
                              : std::to_string(leader_gdo) + " (leader)";
    for (std::size_t i = 0; i < member_drivers.size(); ++i) {
      if (member_drivers[i]->finished()) continue;
      if (!waiting.empty()) waiting += ", ";
      waiting += std::to_string(member_gdos[i]);
    }
    return common::make_error(
        common::Errc::state_violation,
        "the event loop ran dry; still waiting: GDO " + waiting);
  }

  if (spec.obs != nullptr) {
    spec.obs->metrics.set_label("net.transport", transport_label(transport));

    // Per-hub wire stats: gathered writes and frames lost with failed
    // dials.
    std::uint64_t writev_batches = 0;
    std::uint64_t dial_dropped = 0;
    const auto harvest_wire = [&](const net::Hub& hub) {
      const net::Hub::WireStats& ws = hub.wire_stats();
      writev_batches += ws.writev_batches;
      dial_dropped += ws.dial_dropped_frames;
    };
    harvest_wire(*leader_hub);
    for (const auto& hub : member_hubs) harvest_wire(*hub);
    spec.obs->metrics.add_counter("wire.writev_batches", writev_batches);
    spec.obs->metrics.add_counter("net.dial.dropped_frames", dial_dropped);
  }

  if (!leader.status().ok()) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (failed_first[i] != 0) return members[i]->status().error();
    }
    return leader.status().error();
  }
  // Surface any member-side failure (e.g. tampering detected) even when the
  // leader finished: a correct run requires every node to have succeeded.
  for (const auto& member : members) {
    if (!member->status().ok()) return member->status().error();
  }

  StudyResult study = leader.result();
  // The leader hub terminates both directions of every link in the star, so
  // its meter sees all protocol traffic, whatever carries the bytes.
  study.network_bytes_total = leader_hub->meter().total_bytes();
  study.leader_bytes_received =
      leader_hub->meter().bytes_received_by(node_id_of(leader_gdo));
  study.network_links = leader_hub->meter().snapshot();
  for (const auto& member : members) {
    member_compute_ms.push_back(member->compute_ms());
  }
  return study;
}

}  // namespace

Result<StudyResult> run_federated_study(const genome::Cohort& cohort,
                                        const FederationSpec& spec) {
  if (spec.num_gdos == 0) {
    return common::make_error(common::Errc::invalid_argument,
                              "federation needs at least one GDO");
  }
  if (common::Status valid = validate(spec.config); !valid.ok()) {
    return valid.error();
  }
  if (cohort.controls.num_snps() != cohort.cases.num_snps()) {
    return common::make_error(common::Errc::invalid_argument,
                              "reference panel and cases differ in SNP count");
  }
  obs::ScopedSpan study_span(obs::recorder_of(spec.obs), "study");
  obs::ScopedSpan setup_span(obs::recorder_of(spec.obs), "step.setup",
                             study_span.id());
  common::Rng sim_rng(spec.seed);

  // Deployment-wide attestation root and per-GDO platforms.
  std::array<std::uint8_t, 32> authority_seed{};
  for (auto& b : authority_seed) b = static_cast<std::uint8_t>(sim_rng.next());
  crypto::Csprng authority_rng(authority_seed);
  tee::QuotingAuthority authority =
      tee::QuotingAuthority::with_random_key(authority_rng);

  std::vector<std::unique_ptr<tee::Platform>> platforms;
  platforms.reserve(spec.num_gdos);
  for (std::uint32_t g = 0; g < spec.num_gdos; ++g) {
    std::array<std::uint8_t, 32> platform_seed{};
    for (auto& b : platform_seed) {
      b = static_cast<std::uint8_t>(sim_rng.next());
    }
    platforms.push_back(std::make_unique<tee::Platform>(
        g + 1, authority, crypto::Csprng(platform_seed), spec.epc_limit));
  }

  // Random leader election (§5.2 pre-processing step 1).
  const std::uint32_t leader_gdo =
      static_cast<std::uint32_t>(sim_rng.uniform_int(spec.num_gdos));

  // Equal division of case genomes among members (§7).
  const auto ranges =
      genome::equal_partition(cohort.cases.num_individuals(), spec.num_gdos);

  const std::chrono::milliseconds receive_timeout(spec.receive_timeout_ms);

  // AEAD counters are process-wide; a per-run snapshot delta isolates this
  // study's sealing work (federation runs in one process are sequential).
  const crypto::AeadCounters aead_before = crypto::aead_counters();

  // The study's pool: it builds every GDO's planes, then runs the LR
  // selections (the combinations side by side, or one combination's gap
  // pass).
  std::unique_ptr<common::ThreadPool> pool;
  if (spec.parallel_combinations) {
    pool = std::make_unique<common::ThreadPool>();
  }
  setup_span.end();

  std::vector<double> member_compute_ms;
  auto result = run_sessions(cohort, spec, transport_mode_of(spec), platforms,
                             leader_gdo, ranges, pool.get(), study_span.id(),
                             receive_timeout, member_compute_ms);
  if (spec.obs != nullptr && pool != nullptr) {
    spec.obs->metrics.add_counter("pool.tasks_completed",
                                  pool->tasks_completed());
    spec.obs->metrics.set_gauge("pool.task_wall_ms", pool->task_wall_ms());
    spec.obs->metrics.set_gauge("pool.threads",
                                static_cast<double>(pool->size()));
  }
  if (!result.ok()) return result;

  StudyResult study = std::move(result).take();
  double member_compute_sum = 0;
  double member_compute_max = 0;
  for (const double compute_ms : member_compute_ms) {
    member_compute_sum += compute_ms;
    member_compute_max = std::max(member_compute_max, compute_ms);
  }
  study.modelled_distributed_ms =
      study.timings.total_ms - member_compute_sum + member_compute_max;
  std::uint64_t member_peak = 0;
  study.epc_peak_per_gdo.assign(spec.num_gdos, 0);
  study.epc_limit_bytes = spec.epc_limit;
  for (std::uint32_t g = 0; g < spec.num_gdos; ++g) {
    const std::uint64_t peak = platforms[g]->epc().peak();
    study.epc_peak_per_gdo[g] = peak;
    if (g == leader_gdo) {
      study.epc_peak_leader = peak;
    } else {
      member_peak = std::max(member_peak, peak);
    }
  }
  study.epc_peak_members_max = member_peak;
  const crypto::AeadCounters aead_after = crypto::aead_counters();
  study.crypto_backend =
      crypto::aead_backend_name(crypto::default_aead_backend());
  study.crypto_records_sealed =
      aead_after.records_sealed - aead_before.records_sealed;
  study.crypto_bytes_sealed =
      aead_after.bytes_sealed - aead_before.bytes_sealed;
  if (spec.obs != nullptr) {
    spec.obs->metrics.set_label("crypto.backend", study.crypto_backend);
    spec.obs->metrics.set_gauge(
        "crypto.backend_native",
        crypto::default_aead_backend() == crypto::AeadBackend::native ? 1.0
                                                                      : 0.0);
    spec.obs->metrics.add_counter("crypto.records_sealed",
                                  study.crypto_records_sealed);
    spec.obs->metrics.add_counter("crypto.bytes_sealed",
                                  study.crypto_bytes_sealed);
  }
  if (spec.obs != nullptr) {
    // Per-GDO EPC high-water marks and per-link traffic outlive the
    // platforms/fabric via the registry (and via StudyResult for reports).
    for (std::uint32_t g = 0; g < spec.num_gdos; ++g) {
      spec.obs->metrics.max_gauge(
          "epc.gdo" + std::to_string(g) + ".peak_bytes",
          static_cast<double>(study.epc_peak_per_gdo[g]));
    }
    std::uint64_t total_messages = 0;
    for (const auto& link : study.network_links) {
      spec.obs->metrics.add_counter("net.link." + std::to_string(link.from) +
                                        "to" + std::to_string(link.to) +
                                        ".bytes",
                                    link.bytes);
      total_messages += link.messages;
    }
    spec.obs->metrics.add_counter("net.total_bytes",
                                  study.network_bytes_total);
    spec.obs->metrics.add_counter("net.total_messages", total_messages);
  }
  return study;
}

}  // namespace gendpr::core
