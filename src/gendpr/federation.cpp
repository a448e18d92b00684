#include "gendpr/federation.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
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

/// Resolves the event-loop count: GENDPR_EVENT_LOOPS overrides the spec.
std::uint32_t event_loops_of(const FederationSpec& spec) {
  std::uint32_t loops = spec.event_loops;
  const char* env = std::getenv("GENDPR_EVENT_LOOPS");
  if (env != nullptr) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 && parsed <= 64) {
      loops = static_cast<std::uint32_t>(parsed);
    } else {
      common::log_warn("federation", "invalid GENDPR_EVENT_LOOPS value '",
                       env, "'; using the spec's event_loops");
    }
  }
  return loops == 0 ? 1 : loops;
}

/// Stable loop assignment for a GDO: depends only on (gdo, num_loops),
/// never on thread timing, so every run shards (and behaves) identically.
std::size_t loop_index_of(std::uint32_t gdo, std::size_t num_loops) {
  return gdo % num_loops;
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

/// Runs the whole federation as sans-IO sessions on event-loop threads: one
/// hub per GDO (members dial the leader — the star topology the protocol
/// already assumes), one SessionDriver per session. In process, the hubs
/// are in-memory and every GDO gets its own loop thread, the parallelism of
/// one host per GDO. Over sockets (epoll hubs on loopback TCP)
/// the sessions are sharded across `spec.event_loops` loops. The leader's
/// loop runs on the calling thread and every other loop on its own thread;
/// cross-loop work travels only through EventLoop::post. Fills
/// `member_compute_ms` for the distributed-wall-time model.
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
  const std::size_t num_loops =
      transport == FederationSpec::TransportMode::in_process
          ? spec.num_gdos
          : std::max<std::size_t>(
                1, std::min<std::size_t>(event_loops_of(spec), spec.num_gdos));

  std::vector<std::unique_ptr<net::EventLoop>> loops;
  loops.reserve(num_loops);
  for (std::size_t i = 0; i < num_loops; ++i) {
    loops.push_back(std::make_unique<net::EventLoop>());
    if (!loops.back()->valid()) {
      return common::make_error(common::Errc::io_error,
                                "epoll_create1/eventfd failed");
    }
  }
  const auto loop_of = [&](std::uint32_t gdo) -> net::EventLoop& {
    return *loops[loop_index_of(gdo, num_loops)];
  };

  net::MemoryHub::Registry registry;

  // All loop-owned objects (hubs, sessions, drivers) are built and wired on
  // this thread BEFORE any loop thread starts; thread creation publishes
  // them. After that, each object is touched only by its loop's thread.
  auto leader_hub_result = make_hub(transport, registry, loop_of(leader_gdo),
                                    node_id_of(leader_gdo));
  if (!leader_hub_result.ok()) return leader_hub_result.error();
  std::unique_ptr<net::Hub> leader_hub = std::move(leader_hub_result).take();

  // Provisioning: every GDO's planes come straight from its row range,
  // each build split across the study's pool. No loop thread runs yet, so
  // the pool has the host to itself.
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
    auto hub = make_hub(transport, registry, loop_of(g), node_id_of(g));
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

  SessionDriver leader_driver(loop_of(leader_gdo), *leader_hub, leader);
  std::vector<std::unique_ptr<SessionDriver>> member_drivers;
  member_drivers.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    member_drivers.push_back(std::make_unique<SessionDriver>(
        loop_of(member_gdos[i]), *member_hubs[i], *members[i]));
  }

  // Completion accounting that works across loop threads: every driver's
  // on_finished (running on its own loop's thread) decrements `remaining`;
  // the last one flips `all_done` and wakes every loop so the pollers exit.
  std::atomic<std::uint32_t> remaining{
      static_cast<std::uint32_t>(1 + member_drivers.size())};
  std::atomic<bool> all_done{false};
  const auto note_finished = [&] {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      all_done.store(true, std::memory_order_release);
      for (auto& loop : loops) loop->post([] {});
    }
  };

  // A member whose own session fails while the leader still runs (EPC
  // exhausted building its LD windows, say) hangs up on the leader, as its
  // host's dropped connection would, so the leader declares it dead instead
  // of waiting on it; its error is then the study's root cause. A member
  // told to stop by the leader's abort notice is not one.
  std::atomic<bool> leader_running{true};
  std::vector<char> failed_first(member_drivers.size(), 0);
  for (std::size_t i = 0; i < member_drivers.size(); ++i) {
    member_drivers[i]->set_on_finished([&, i] {
      const common::Status& status = members[i]->status();
      if (!status.ok() && status.error().code != common::Errc::aborted &&
          leader_running.load(std::memory_order_acquire)) {
        failed_first[i] = 1;
        loop_of(leader_gdo).post([&, peer = node_id_of(member_gdos[i])] {
          if (!leader_driver.finished()) leader_driver.on_peer_lost(peer);
        });
      }
      note_finished();
    });
  }
  // When the leader fails, surviving members normally learn it from the
  // abort notice; a member whose connection (or handshake) never came up
  // would wait forever with no timeout configured. Give the notices half a
  // second to flush, then force the stragglers' transports closed — each on
  // its own loop thread, reached through post().
  leader_driver.set_on_finished([&] {
    leader_running.store(false, std::memory_order_release);
    const bool leader_failed = !leader.status().ok();
    note_finished();
    if (!leader_failed) return;
    loop_of(leader_gdo).add_timer_after(std::chrono::milliseconds{500}, [&] {
      for (std::size_t i = 0; i < member_drivers.size(); ++i) {
        loop_of(member_gdos[i]).post([driver = member_drivers[i].get()] {
          if (!driver->finished()) driver->close();
        });
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

  // poll_once (not run_until): a loop whose sessions all finished still has
  // nothing to tear down until every loop is done, and the bounded wait
  // means even a lost wakeup cannot hang the join.
  const auto run_loop = [&all_done](net::EventLoop& loop) {
    while (!all_done.load(std::memory_order_acquire)) {
      loop.poll_once(std::chrono::milliseconds{100});
    }
  };
  // The leader's loop runs on this thread, the others on their own. Keeping
  // the leader, which holds a study's largest buffers, on the caller's
  // thread lets successive studies reuse the same allocator arena.
  const std::size_t leader_loop = loop_index_of(leader_gdo, num_loops);
  std::vector<std::thread> threads;
  threads.reserve(num_loops - 1);
  for (std::size_t i = 0; i < num_loops; ++i) {
    if (i == leader_loop) continue;
    threads.emplace_back(
        [&run_loop, loop = loops[i].get()] { run_loop(*loop); });
  }
  run_loop(*loops[leader_loop]);
  for (auto& thread : threads) thread.join();

  // Loop threads are joined: session and hub state is safely readable from
  // this thread again.
  if (spec.obs != nullptr) {
    std::uint64_t pauses = 0;
    std::uint64_t resumes = 0;
    std::uint64_t stalled = leader_driver.stalled_flushes();
    std::vector<std::uint64_t> loop_peaks(num_loops, 0);
    const auto harvest = [&](std::uint32_t gdo, const net::Hub& hub) {
      const net::Hub::BackpressureStats& bp = hub.backpressure();
      pauses += bp.pauses;
      resumes += bp.resumes;
      auto& peak = loop_peaks[loop_index_of(gdo, num_loops)];
      peak = std::max(peak, bp.peak_queued_bytes);
    };
    harvest(leader_gdo, *leader_hub);
    for (std::size_t i = 0; i < member_hubs.size(); ++i) {
      harvest(member_gdos[i], *member_hubs[i]);
      stalled += member_drivers[i]->stalled_flushes();
    }
    spec.obs->metrics.set_label("net.transport", transport_label(transport));
    spec.obs->metrics.set_gauge("net.event_loops",
                                static_cast<double>(num_loops));
    spec.obs->metrics.add_counter("net.backpressure.pauses", pauses);
    spec.obs->metrics.add_counter("net.backpressure.resumes", resumes);
    spec.obs->metrics.add_counter("net.backpressure.stalled_flushes",
                                  stalled);
    for (std::size_t i = 0; i < num_loops; ++i) {
      spec.obs->metrics.max_gauge(
          "net.loop" + std::to_string(i) + ".peak_queued_bytes",
          static_cast<double>(loop_peaks[i]));
    }

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
