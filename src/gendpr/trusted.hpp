// Trusted GenDPR modules (run inside the per-GDO enclaves).
//
// `GdoEnclave` is the member-side trusted module of Fig. 2: it holds the
// GDO's local case genotypes (which never leave it in plaintext) and answers
// the leader's phase requests with intermediate aggregates. `Coordinator` is
// the leader-side coordination module: it aggregates member inputs with its
// own local data and the public reference panel, runs the MAF / LD / LR-test
// decisions per honest-subset combination (§5.6), and intersects the
// per-combination survivor lists.
//
// All methods take and return plaintext protocol messages; the untrusted
// host (session_driver.hpp) moves only SecureChannel ciphertext. The split
// mirrors the paper's enclave boundary: decisions happen here, transport out
// there.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "gendpr/config.hpp"
#include "gendpr/messages.hpp"
#include "genome/bitplanes.hpp"
#include "genome/tile_plan.hpp"
#include "obs/observability.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"
#include "tee/enclave.hpp"

namespace gendpr::core {

/// Name/version measured into every GenDPR trusted module. All federation
/// enclaves must run this exact module to pass mutual attestation.
inline constexpr const char* kTrustedModuleName = "gendpr.trusted";
inline constexpr const char* kTrustedModuleVersion = "1.0.0";

tee::Measurement trusted_module_measurement();

/// Member-side trusted module.
class GdoEnclave : public tee::Enclave {
 public:
  GdoEnclave(tee::Platform& platform, std::uint32_t gdo_index);

  std::uint32_t gdo_index() const noexcept { return gdo_index_; }

  /// Loads the GDO's local case genotypes into the enclave as SNP-major bit
  /// planes, the one layout its statistical kernels run on (models
  /// decrypting the sealed local dataset; charged against the EPC meter).
  common::Status provision_dataset(genome::BitPlanes cases);

  const genome::BitPlanes& planes() const noexcept { return planes_; }

  /// --- protocol handlers (member role) ---
  common::Status on_study_announce(const StudyAnnounce& announce);
  SummaryStats make_summary_stats() const;
  /// Per-tile summary for the pipelined phase 1: the allele counts of SNPs
  /// [snp_begin, snp_end), read straight from the bit-plane count cache
  /// through a zero-copy tile view (never recounted).
  SummaryStats make_summary_tile(std::uint32_t snp_begin,
                                 std::uint32_t snp_end,
                                 std::uint32_t tile_index) const;
  /// Accepts L' (strictly ascending, within the announced SNP range).
  common::Status on_phase1(const Phase1Result& result);
  /// Tile plan over L' the LD windows stream in (empty before on_phase1).
  genome::TilePlan ld_plan() const;
  /// Answers phase 1 for one L' tile, unrequested: the co-occurrence counts
  /// of every pair within kLdWindow ranks ending at ranks [rank_begin,
  /// rank_end), laid out as LdWindow documents.
  LdWindow make_ld_window(std::uint32_t rank_begin, std::uint32_t rank_end,
                          std::uint32_t tile_index) const;
  /// Answers a pair the leader needs beyond the window; both SNPs must be
  /// in L'.
  common::Result<MomentsResponse> on_moments_request(
      const MomentsRequest& request) const;
  /// Answers one phase-2 tile (paper Fig. 4 step 2) with this GDO's LR
  /// indicator planes over the tile's L'' columns: every combination's local
  /// LR matrix is a per-column weight select over exactly these bits, and
  /// the leader computes the weights itself. Every SNP must be in this
  /// GDO's L' and above the last one answered, so the leader can read no
  /// plane outside the study's L''.
  ///
  /// Under tiling the leader streams `result.num_tiles` tile messages in
  /// ascending `tile_index` order; each is answered independently and L''
  /// accumulates across the stream. Out-of-order or repeated tiles are a
  /// protocol violation.
  common::Result<LrPlanes> on_phase2(const Phase2Result& result);
  /// Accepts L_safe (strictly ascending, within the L'' assembled from the
  /// phase-2 tiles) and marks the study complete.
  common::Status on_phase3(const Phase3Result& result);

  const std::vector<std::uint32_t>& retained_after_phase1() const noexcept {
    return l_prime_;
  }
  const std::vector<std::uint32_t>& safe_snps() const noexcept {
    return l_safe_;
  }
  bool study_complete() const noexcept { return study_complete_; }

 private:
  bool in_l_prime(std::uint32_t snp) const;

  std::uint32_t gdo_index_;
  genome::BitPlanes planes_;
  tee::EpcAllocation planes_epc_;

  std::optional<StudyAnnounce> announce_;
  std::vector<std::uint32_t> l_prime_;
  std::vector<std::uint32_t> l_double_prime_;
  std::vector<std::uint32_t> l_safe_;
  /// Next phase-2 tile index expected from the leader (stream sequencing).
  std::uint32_t phase2_next_tile_ = 0;
  bool study_complete_ = false;
};

/// Aggregated per-phase outcome of a coordinated study.
struct SelectionOutcome {
  std::vector<std::uint32_t> l_prime;
  std::vector<std::uint32_t> l_double_prime;
  std::vector<std::uint32_t> l_safe;
  double final_power = 0.0;
};

/// Leader-side coordination module. Owns the reference panel (public data)
/// and the leader GDO's own enclave for its local dataset.
class Coordinator {
 public:
  /// The study plan lives here and nowhere else: the thresholds, and the
  /// combination table built once from `policy`. The study spans the
  /// reference panel's SNPs.
  Coordinator(GdoEnclave& leader_enclave, genome::BitPlanes reference,
              std::uint32_t num_gdos, const StudyConfig& config,
              const CollusionPolicy& policy);

  const StudyConfig& config() const noexcept { return config_; }
  /// combinations()[i] lists the GDO indices whose data forms honest
  /// subset i.
  const std::vector<std::vector<std::uint32_t>>& combinations() const noexcept {
    return combinations_;
  }
  /// The announce every member receives: the SNP count and the tile width,
  /// nothing of the thresholds or the collusion policy.
  StudyAnnounce announce() const {
    return {static_cast<std::uint32_t>(reference_planes_.num_snps()),
            config_.snp_tile_width};
  }

  /// Attaches the run's observability bundle. Each analysis phase then opens
  /// a span under `study_span` with one child span per evaluated combination
  /// ("<phase>.combination.<id>"), and records evaluation counters. Pass
  /// nullptr (the default state) to run unobserved.
  void set_observability(obs::Observability* obs,
                         obs::SpanId study_span = obs::kNoSpan) noexcept {
    obs_ = obs;
    study_span_ = study_span;
  }
  /// The study's thread pool (nullptr, the default, runs serially). The LD
  /// phase computes its association p-values on it, and the LR phase fans
  /// its selections out on it; the two never overlap.
  void set_pool(common::ThreadPool* pool) noexcept { pool_ = pool; }

  /// --- Liveness (degraded mode) ---
  /// Marks a GDO as unresponsive: every later phase skips combinations
  /// containing it instead of stalling on its missing contributions. The
  /// leader itself cannot be marked dead. Not thread-safe; call from the
  /// protocol thread only.
  common::Status mark_gdo_dead(std::uint32_t gdo_index);
  const std::set<std::uint32_t>& dead_gdos() const noexcept {
    return dead_gdos_;
  }
  /// True when no member of combination `combination_id` is marked dead.
  bool combination_live(std::size_t combination_id) const;
  std::size_t live_combination_count() const;
  /// Sum of |members(c)| over the live combinations (the study's shape in
  /// the run report).
  std::size_t combination_members_total() const;
  /// Phase-1 case population per GDO (0 before its first summary tile).
  std::vector<std::uint32_t> case_populations() const;

  /// Builds the combination table for a policy (the one the constructor
  /// keeps; public for the runner, benchmarks and tests).
  static std::vector<std::vector<std::uint32_t>> build_combinations(
      std::uint32_t num_gdos, const CollusionPolicy& policy);

  /// --- Member tile streams ---
  /// The three member->leader streams of Alg. 1: phase-1 summaries, LD
  /// windows and LR planes. Every member sends each tile of a stream once,
  /// in ascending tile order; the add_* method of the stream refuses a tile
  /// that is out of range, repeated or out of order as bad_message naming
  /// the GDO. The leader's own data is local, so it never owes a tile.
  enum class Stream : std::uint8_t { summaries, ld_windows, lr_planes };
  /// Live members that still owe `stream` a tile: every live member before
  /// the stream opens (summaries open with the announce, LD windows with
  /// the MAF phase's L', LR planes with the LD phase's L''), none once each
  /// sent its last tile.
  std::set<std::uint32_t> members_owing(Stream stream) const;

  /// --- Tiling ---
  /// Phase-1 plan over the study's SNP range.
  const genome::TilePlan& maf_plan() const noexcept { return maf_plan_; }
  /// Phase-3 plan over L'' (valid after run_ld_phase).
  const genome::TilePlan& lr_plan() const noexcept { return lr_plan_; }

  /// --- Phase 1 ---
  /// Ingests one summary tile from `gdo_index` (the whole vector when
  /// tiling is off). Tiles interleave freely across GDOs; per GDO they
  /// arrive in stream order, each holds the tile's width in counts, no
  /// count exceeds n_case, and n_case is the same on every tile. Every
  /// failure but an unknown GDO names the GDO and is bad_message.
  common::Status add_summary(std::uint32_t gdo_index,
                             const SummaryStats& stats);
  /// Pipelined MAF assessment: assesses every not-yet-assessed tile whose
  /// summaries arrived from all live members, in ascending tile order, and
  /// returns how many tiles were assessed. The host calls this after each
  /// summary arrival so the leader evaluates tile k while members stream
  /// tile k+1; run_maf_phase finishes whatever remains. Appending per-tile
  /// survivors in tile order keeps each combination's list sorted, so the
  /// final intersection is independent of the tile width.
  std::size_t assess_ready_maf_tiles();
  /// Runs per-combination MAF analysis and intersects (Alg. 1 lines 10-25).
  common::Result<Phase1Result> run_maf_phase();

  /// --- Phase 2 ---
  /// Plan over the ranks of L' the members' LD windows stream in (valid
  /// after run_maf_phase).
  const genome::TilePlan& ld_plan() const noexcept { return ld_plan_; }
  /// Ingests one member's LD window for one ld_plan() tile. Every failure
  /// names the GDO and is bad_message: the window must come after the MAF
  /// phase, in stream order, it must hold width * kLdWindow counts, padding
  /// entries (no partner rank) must be zero, and every count must fit the
  /// GDO's phase-1 counts (co <= min(count_a, count_b) and count_a +
  /// count_b - co <= n_case). A window from a GDO already declared dead is
  /// dropped. The window is charged to the leader's EPC while its tile is
  /// the next to walk; a window that arrives ahead of the walk is sealed out
  /// of the enclave until then, so held windows stay O(tile).
  common::Status add_ld_window(std::uint32_t gdo_index, LdWindow window);
  /// Pipelined LD walk (Alg. 1 lines 28-57), the LD half of the inline tile
  /// engine. Moves every live combination's walk as far as the arrived
  /// windows and answered counts allow: through each tile whose windows
  /// arrived from all live members, in ascending tile order, releasing the
  /// tile's windows after it. A pair more than kLdWindow ranks apart stops
  /// the walk: its first touch opens one MomentsRequest to every live member,
  /// and the walk goes on once each of them answered (add_moments) or was
  /// marked dead. Returns the request when this call opened one, for the
  /// host to send to members_owing_moments(); nullopt when the walk waits on
  /// windows or on the open request, or is done. The host calls this after
  /// each arrival; the first call opens the `phase.ld` span, so the wait for
  /// windows sits inside the phase.
  common::Result<std::optional<MomentsRequest>> advance_ld_walks();
  /// Live members that still owe the open MomentsRequest its answer (empty
  /// when none is open).
  std::set<std::uint32_t> members_owing_moments() const;
  /// Ingests one member's answer to the open MomentsRequest. Every failure
  /// names the GDO and is bad_message: no request is open, the request did
  /// not address the GDO, the GDO already answered it, the id is not the
  /// request's, or the count does not fit the GDO's phase-1 counts (as for
  /// a window). A refused answer is not counted.
  common::Status add_moments(std::uint32_t gdo_index,
                             const MomentsResponse& response);
  /// Finishes the LD phase once the walk is done: intersects the survivors
  /// and fixes the phase-3 tile plan over L''. A walk still owed a window or
  /// an answer is a state_violation.
  common::Result<Phase2Result> run_ld_phase();
  /// Per-tile Phase2Result bodies (column slices of run_ld_phase's result;
  /// one entry per lr_plan() tile). Valid after it. The
  /// LR phase starts here: this opens the `phase.lr` span and one
  /// `lr.tile.<k>` span per tile, each closing once every live member's
  /// planes for that tile arrived.
  std::vector<Phase2Result> phase2_tiles();

  /// --- Phase 3 ---
  /// Ingests one member's LR planes for one tile. Every failure names the
  /// GDO and is bad_message: the tile must come in stream order, the width
  /// must equal the tile width, the words per column must equal
  /// ceil(n_case / 64) from the GDO's phase-1 summary, padding bits past
  /// n_case must be zero, and each column's popcount must equal the GDO's
  /// phase-1 count for that SNP. Accepted planes are kept full-width per
  /// GDO, charged to the leader's EPC; the decoded tile is charged as well
  /// while it is checked and copied, so a tiled gather's transient
  /// footprint is O(tile).
  common::Status add_lr_planes(std::uint32_t gdo_index, const LrPlanes& planes);
  /// Runs the safe-subset selection per live combination on bit planes —
  /// member blocks in ascending GDO order with the leader's own block in its
  /// slot, the reference panel's planes, and the combination's weights,
  /// derived from its members' phase-1 counts and the reference panel —
  /// then intersects. The pool (set_pool) fans the combinations out; with a
  /// single live combination it is threaded into the selection instead.
  common::Result<Phase3Result> run_lr_phase();

  const SelectionOutcome& outcome() const noexcept { return outcome_; }

  /// Count of distinct SNP pairs the LD walks evaluated, served by a
  /// window or by one MomentsRequest each.
  std::size_t ld_pairs_fetched() const noexcept { return ld_pairs_; }

 private:
  /// Moments of one pair (l'[anchor], l'[rank]) for the rank being walked:
  /// per-GDO slots and the reference panel's moments.
  struct PairMoments {
    std::vector<std::optional<stats::LdMoments>> slots;  // per GDO
    stats::LdMoments reference;
  };

  /// The MomentsRequest the walk stopped on: the pair's anchor rank and the
  /// members it addressed (every member live when it opened).
  struct OpenRequest {
    MomentsRequest request;
    std::uint32_t anchor = 0;
    std::vector<std::uint32_t> addressed;
  };

  /// Arrival record of one stream: per GDO, how many of its `tile_count`
  /// tiles arrived, which is also the index the GDO sends next. Empty
  /// until the stream opens.
  struct TileArrivals {
    std::uint32_t tile_count = 0;
    std::vector<std::uint32_t> received;  // per GDO

    bool open() const noexcept { return !received.empty(); }
  };

  /// One member's window over one L' tile: its counts in EPC while the tile
  /// is the next to walk, otherwise sealed out of the enclave.
  struct HeldWindow {
    std::vector<std::uint32_t> counts;
    tee::EpcAllocation epc;
    common::Bytes sealed;
  };

  /// Member `gdo_index`'s moments of the pair (a, b) from its co-occurrence
  /// count and phase-1 summary: mu_x = mu_x2 = count_a, mu_y = mu_y2 =
  /// count_b, mu_xy = co, n = n_case. The one path from a member count to
  /// moments, for windows and requested counts alike; nullopt when the count
  /// cannot come from that summary.
  std::optional<stats::LdMoments> member_moments(std::uint32_t gdo_index,
                                                 std::uint32_t a,
                                                 std::uint32_t b,
                                                 std::uint32_t co) const;
  TileArrivals& arrivals(Stream stream) {
    return streams_[static_cast<std::size_t>(stream)];
  }
  const TileArrivals& arrivals(Stream stream) const {
    return streams_[static_cast<std::size_t>(stream)];
  }
  /// Opens `stream` over `tile_count` tiles, none received yet.
  void open_stream(Stream stream, std::uint32_t tile_count);
  /// The one arrival rule: `tile` must be in range and the next `gdo_index`
  /// owes on `stream` (no repeat, no gap). Admitting does not record the
  /// tile; the add_* method counts it once its content checks pass.
  common::Status admit_tile(Stream stream, std::uint32_t gdo_index,
                            std::uint32_t tile) const;
  /// Tile `tile` of `stream` arrived from every live member.
  bool tile_arrived(Stream stream, std::uint32_t tile) const;
  /// Opens the LD phase once: its span, one span and walk per live
  /// combination, and the walks' association p-values.
  void begin_ld_phase();
  /// Moves the walks through every ready tile (advance_ld_walks' body).
  common::Result<std::optional<MomentsRequest>> walk_ready_ld_tiles();
  /// Starts the walk of tile next_ld_tile_: its span, and its windows
  /// unsealed into EPC.
  common::Status open_ld_tile();
  /// The cache entry of pair (anchor, rank), created on first touch with
  /// the leader's and reference moments and, when the windows cover it,
  /// every live member's. Opens a MomentsRequest for a created entry the
  /// windows do not cover.
  PairMoments& touch_pair(std::uint32_t anchor, std::uint32_t rank);
  common::Error no_live_combination_error(const std::string& phase) const;
  /// Fills ld_association_p_ for every live combination: the chi-squared
  /// association p-values of its pooled cases vs the reference over L',
  /// indexed by L' rank (the LD walk ranks no other SNP). One unit per
  /// (combination, rank block), on the pool when there is one.
  void compute_association_p_values();
  void assess_maf_tile(std::uint32_t tile);

  GdoEnclave* leader_;
  genome::BitPlanes reference_planes_;
  std::uint32_t num_gdos_;
  StudyConfig config_;
  std::vector<std::vector<std::uint32_t>> combinations_;

  // Observability (may be null: unobserved run).
  obs::Observability* obs_ = nullptr;
  obs::SpanId study_span_ = obs::kNoSpan;
  common::ThreadPool* pool_ = nullptr;

  // Liveness state: GDOs declared unresponsive by the host protocol layer.
  std::set<std::uint32_t> dead_gdos_;

  // Arrival records, indexed by Stream.
  std::array<TileArrivals, 3> streams_;

  // Tiling. The phase-1 plan is fixed at construction; the phase-3 plan is
  // fixed over L'' at the end of the LD phase. Both phase spans open lazily
  // (first tile assessed mid-gather) and close when their phase finishes.
  genome::TilePlan maf_plan_;
  genome::TilePlan lr_plan_;
  std::optional<obs::ScopedSpan> maf_span_;
  std::optional<obs::ScopedSpan> lr_span_;

  // Phase 1 state. Summaries assemble tile by tile into full-width vectors.
  std::vector<std::optional<SummaryStats>> summaries_;  // per GDO
  /// Per-combination MAF survivors accumulated in ascending tile order
  /// (empty vectors for combinations that died before assessment ended).
  std::vector<std::vector<std::uint32_t>> maf_survivors_;
  std::uint32_t next_maf_tile_ = 0;

  // Phase 2 state. Every combination's walk keeps its own position (its next
  // rank); the walks are brought up to ld_rank_ together, so a pair (anchor,
  // rank) is only ever needed while `rank` is walked: the pair cache holds
  // one rank's pairs, keyed by anchor rank.
  std::vector<std::uint32_t> l_prime_;
  genome::TilePlan ld_plan_;
  std::optional<obs::ScopedSpan> ld_span_;
  std::vector<std::optional<obs::ScopedSpan>> ld_combination_spans_;
  stats::LdCutoff ld_cutoff_;
  std::vector<stats::LdWalk> ld_walks_;                // per combination
  std::vector<std::vector<double>> ld_association_p_;  // per combination
  std::vector<std::vector<HeldWindow>> ld_windows_;    // [tile][GDO]
  std::uint32_t next_ld_tile_ = 0;
  std::uint32_t ld_rank_ = 0;
  /// Span of tile next_ld_tile_ while it is walked (its windows unsealed).
  std::optional<obs::ScopedSpan> ld_tile_span_;
  bool ld_started_ = false;
  std::map<std::uint32_t, PairMoments> rank_pairs_;
  std::optional<OpenRequest> ld_request_;
  std::size_t ld_pairs_ = 0;
  /// ld.window_pairs and ld.p_values_evaluated not yet added to the
  /// registry: counted per pair, added once per advance_ld_walks call.
  std::size_t ld_window_pairs_unflushed_ = 0;
  std::size_t ld_p_values_unflushed_ = 0;
  /// Monotone id for MomentsRequests (one per request, not per member).
  std::uint32_t next_moments_request_ = 0;

  // Phase 3 state.
  std::vector<std::uint32_t> l_double_prime_;
  /// Per GDO: received planes over all of L'' (column i at word
  /// i * ceil(n_case / 64)) and the EPC charge for them. Sized at the end
  /// of the LD phase.
  std::vector<std::vector<std::uint64_t>> lr_planes_;
  std::vector<std::optional<tee::EpcAllocation>> lr_planes_epc_;
  std::vector<std::optional<obs::ScopedSpan>> lr_tile_spans_;

  SelectionOutcome outcome_;
};

/// Intersection of sorted unique SNP lists (the per-phase intersection of
/// §5.6). Exposed for tests.
std::vector<std::uint32_t> intersect_sorted(
    const std::vector<std::vector<std::uint32_t>>& lists);

}  // namespace gendpr::core
