// Study outcome types shared by the sans-IO sessions and their driver.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gendpr/trusted.hpp"
#include "net/hub.hpp"

namespace gendpr::core {

/// Network node id of GDO `gdo_index` (0 is reserved).
inline net::NodeId node_id_of(std::uint32_t gdo_index) {
  return gdo_index + 1;
}

/// No deadline: every protocol wait blocks forever (the paper's original
/// semantics — no liveness guarantee). Configure a positive timeout to get
/// bounded waits that abort with Errc::timeout naming the silent peer.
inline constexpr std::chrono::milliseconds kNoDeadline{0};

/// Per-phase CPU/wall time breakdown, matching the stacked categories of the
/// paper's Figures 5-6.
struct PhaseTimings {
  double aggregation_ms = 0;  // "Data Aggregation": transfer + decrypt + merge
  double indexing_ms = 0;     // "Indexing/Sorting/AlleleFreq.": MAF phase math
  double ld_ms = 0;           // "LD analysis"
  double lr_ms = 0;           // "LR-test analysis"
  // Wall time of the whole assessment. A federated study's stopwatch starts
  // when the leader starts the study (LeaderSession::run_study_impl), after
  // every GDO's planes are provisioned, so it covers the handshake and the
  // three phases but not `step.provision` or the set-up before it; the
  // baselines time their whole run, plane builds included.
  double total_ms = 0;
};

struct StudyResult {
  SelectionOutcome outcome;
  PhaseTimings timings;
  /// GDOs declared unresponsive during the run. Empty for a clean study; a
  /// non-empty list means the selection came from the surviving
  /// combinations only (collusion policies with redundancy keep going).
  std::vector<std::uint32_t> dead_gdos;
  /// Wall time modelled for a real multi-host deployment: members compute
  /// concurrently there, so serialized member compute collapses to the
  /// slowest member: total - sum(member compute) + max(member compute).
  /// On a single-core simulation host total_ms serializes everything. Built
  /// on timings.total_ms, it starts after provisioning too: the plane
  /// builds are not in it.
  double modelled_distributed_ms = 0;
  std::uint32_t leader_gdo = 0;
  std::uint32_t num_gdos = 0;
  std::size_t num_combinations = 0;
  /// Combinations with no dead member (== num_combinations on clean runs).
  std::size_t live_combinations = 0;
  /// Sum of |members(c)| over live combinations.
  std::size_t combination_members_total = 0;
  /// Case population per GDO from its phase-1 summary (0 for a GDO that
  /// never reported). Public shape: it sizes each member's LR planes.
  std::vector<std::uint32_t> n_case_per_gdo;
  /// Serialized size of the phase-2 result each member receives, summed
  /// over its tiles: L'' and two tile fields per tile, O(|L''|) whatever G.
  std::uint64_t phase2_body_bytes = 0;
  std::size_t ld_pairs_fetched = 0;
  std::uint64_t network_bytes_total = 0;
  std::uint64_t leader_bytes_received = 0;
  std::uint64_t epc_peak_leader = 0;
  std::uint64_t epc_peak_members_max = 0;
  /// Per-link traffic snapshot from the leader hub's meter, taken before
  /// teardown. The meter sees both directions of every link the leader
  /// terminates, which in the star topology is all protocol traffic.
  std::vector<net::TrafficMeter::Link> network_links;
  /// EPC peak per GDO, indexed by GDO; the federation runner fills every
  /// entry before tearing the platforms down.
  std::vector<std::uint64_t> epc_peak_per_gdo;
  /// The per-platform EPC limit the run was configured with (0 = unknown).
  std::uint64_t epc_limit_bytes = 0;
  /// AEAD backend the run dispatched to ("portable" / "native") and the
  /// run's sealing volume (records = AEAD invocations across channels and
  /// sealed blobs, bytes = plaintext protected).
  std::string crypto_backend;
  std::uint64_t crypto_records_sealed = 0;
  std::uint64_t crypto_bytes_sealed = 0;
  /// SIMD kernel backend the bit-plane hot loops dispatched to
  /// ("portable" / "avx2" / "avx512").
  std::string kernel_backend;
  /// Tiling shape of the pipelined phase engine: the configured width
  /// (0 = monolithic) and the resulting phase-1 / phase-3 tile counts.
  std::uint32_t snp_tile_width = 0;
  std::uint32_t maf_tiles = 1;
  std::uint32_t lr_tiles = 1;
  /// Pipeline overlap: MAF tiles the leader assessed while members were
  /// still streaming summaries, and the time spent on them.
  std::size_t maf_tiles_assessed_inline = 0;
  double leader_inline_assess_ms = 0;
};

}  // namespace gendpr::core
