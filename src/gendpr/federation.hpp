// One-call federation runner: wires up the hubs, quoting authority, per-GDO
// platforms and protocol sessions, elects a leader, runs the study, and
// tears everything down. This is the public entry point the examples,
// integration tests, and benchmark harness build on.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "gendpr/config.hpp"
#include "gendpr/session.hpp"
#include "genome/cohort.hpp"
#include "obs/observability.hpp"

namespace gendpr::core {

struct FederationSpec {
  /// What carries the frames between the GDO sessions; every mode runs the
  /// same sessions under the same event-loop driver, so the bytes and the
  /// results are the same. `in_process` moves payload vectors between
  /// in-memory hubs (net::MemoryHub), one event-loop thread per GDO.
  /// `epoll` uses EpollHub sockets on loopback TCP. `uring` runs the epoll
  /// transport (with a log line); it stays only because the benchmark
  /// harness names it and goes with the next benchmark-only change. The
  /// GENDPR_TRANSPORT environment variable ("epoll" / "in_process")
  /// overrides this field when set.
  enum class TransportMode { in_process, epoll, uring };
  TransportMode transport = TransportMode::in_process;

  /// Number of event-loop threads the epoll transport shards its
  /// sessions across (GDO g runs on loop g mod event_loops, so the
  /// placement — and every protocol byte — is independent of thread
  /// timing). 1 = the single-loop mode, run on the calling thread. Capped
  /// at the number of GDOs; `in_process` always runs one loop per GDO. The
  /// GENDPR_EVENT_LOOPS environment variable overrides this field when
  /// set.
  std::uint32_t event_loops = 1;

  std::uint32_t num_gdos = 3;
  /// Study thresholds, plus the engine shape: `config.snp_tile_width`
  /// rides in the announce, so setting it here turns the whole federation
  /// tiled (summaries, LD windows, phase-2 tiles and LR planes stream one
  /// tile per message, with pipelined leader assessment) without changing
  /// any result bits.
  StudyConfig config;
  CollusionPolicy policy = CollusionPolicy::none();
  /// Seeds leader election and all simulation crypto (deterministic runs).
  std::uint64_t seed = 7;
  /// Simulated EPC limit per platform.
  std::uint64_t epc_limit = tee::EpcMeter::kDefaultLimitBytes;
  /// Give the study a thread pool (one worker per hardware thread). It
  /// builds every GDO's bit planes during provisioning, then runs the LR
  /// selections inside the leader enclave (§5.6: "efficiently conducted in
  /// parallel"): the combinations side by side, or the one combination's
  /// gap pass at f = 0. Results are bit-identical either way.
  bool parallel_combinations = true;
  /// Deadline for every protocol wait on every node, in milliseconds.
  /// 0 preserves the paper's original semantics (block forever). With a
  /// deadline, an unresponsive GDO is declared dead: the study either
  /// completes on the surviving combinations or aborts with Errc::timeout
  /// naming the dead peer(s).
  std::uint32_t receive_timeout_ms = 0;
  /// Run-wide observability bundle (nullptr = unobserved). When set, the
  /// runner opens the root "study" span, every node and the coordinator
  /// record spans/metrics into it, and the teardown path exports per-link
  /// traffic, per-GDO EPC peaks, and thread-pool statistics into the
  /// registry so a RunReport can be serialized after the call returns. The
  /// bundle must outlive the call; the caller owns it.
  obs::Observability* obs = nullptr;
};

/// Runs a full federated GenDPR study over `cohort`: case genomes are split
/// equally among `spec.num_gdos` GDOs; the control population serves as the
/// public reference panel. Blocking; returns when all nodes finished.
common::Result<StudyResult> run_federated_study(const genome::Cohort& cohort,
                                                const FederationSpec& spec);

}  // namespace gendpr::core
