#include "gendpr/trusted.hpp"

#include <algorithm>

#include "common/combinatorics.hpp"
#include "genome/kernels/kernels.hpp"
#include "stats/association.hpp"
#include "wire/fields.hpp"

namespace gendpr::core {

using common::Errc;
using common::make_error;
using common::Result;
using common::Status;

tee::Measurement trusted_module_measurement() {
  return tee::measure(kTrustedModuleName, kTrustedModuleVersion);
}

// ---------------------------------------------------------------------------
// GdoEnclave
// ---------------------------------------------------------------------------

GdoEnclave::GdoEnclave(tee::Platform& platform, std::uint32_t gdo_index)
    : tee::Enclave(platform, kTrustedModuleName, kTrustedModuleVersion),
      gdo_index_(gdo_index) {}

Status GdoEnclave::provision_dataset(genome::BitPlanes cases) {
  auto allocation = reserve_epc(cases.storage_bytes());
  if (!allocation.ok()) return allocation.error();
  planes_epc_ = std::move(allocation).take();
  planes_ = std::move(cases);
  return Status::success();
}

Status GdoEnclave::on_study_announce(const StudyAnnounce& announce) {
  if (announce.num_snps != planes_.num_snps()) {
    return make_error(Errc::invalid_argument,
                      "announced SNP count does not match local dataset");
  }
  announce_ = announce;
  l_prime_.clear();
  l_double_prime_.clear();
  l_safe_.clear();
  phase2_next_tile_ = 0;
  study_complete_ = false;
  return Status::success();
}

SummaryStats GdoEnclave::make_summary_stats() const {
  SummaryStats stats;
  stats.case_counts = planes_.allele_counts();
  stats.n_case = static_cast<std::uint32_t>(planes_.num_individuals());
  return stats;
}

SummaryStats GdoEnclave::make_summary_tile(std::uint32_t snp_begin,
                                           std::uint32_t snp_end,
                                           std::uint32_t tile_index) const {
  const genome::BitPlanes::TileView view = planes_.tile(snp_begin, snp_end);
  SummaryStats stats;
  stats.case_counts.assign(view.allele_counts(),
                           view.allele_counts() + view.num_snps());
  stats.n_case = static_cast<std::uint32_t>(planes_.num_individuals());
  stats.tile_index = tile_index;
  return stats;
}

Status GdoEnclave::on_phase1(const Phase1Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase1 before study announce");
  }
  for (std::size_t i = 0; i < result.retained.size(); ++i) {
    if (result.retained[i] >= announce_->num_snps) {
      return make_error(Errc::bad_message, "retained SNP out of range");
    }
    if (i > 0 && result.retained[i] <= result.retained[i - 1]) {
      return make_error(Errc::bad_message,
                        "retained SNPs not strictly ascending");
    }
  }
  l_prime_ = result.retained;
  return Status::success();
}

bool GdoEnclave::in_l_prime(std::uint32_t snp) const {
  return std::binary_search(l_prime_.begin(), l_prime_.end(), snp);
}

genome::TilePlan GdoEnclave::ld_plan() const {
  if (!announce_.has_value()) return {};
  return genome::TilePlan::over(static_cast<std::uint32_t>(l_prime_.size()),
                                announce_->snp_tile_width);
}

LdWindow GdoEnclave::make_ld_window(std::uint32_t rank_begin,
                                    std::uint32_t rank_end,
                                    std::uint32_t tile_index) const {
  LdWindow window;
  window.tile_index = tile_index;
  window.counts.assign(std::size_t{rank_end - rank_begin} * kLdWindow, 0);
  for (std::uint32_t rank = rank_begin; rank < rank_end; ++rank) {
    std::uint32_t* row =
        window.counts.data() + std::size_t{rank - rank_begin} * kLdWindow;
    for (std::uint32_t d = 1; d <= kLdWindow && d <= rank; ++d) {
      row[d - 1] = static_cast<std::uint32_t>(
          planes_.pair_count(l_prime_[rank - d], l_prime_[rank]));
    }
  }
  return window;
}

Result<MomentsResponse> GdoEnclave::on_moments_request(
    const MomentsRequest& request) const {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation,
                      "moments request before study announce");
  }
  if (!in_l_prime(request.snp_a) || !in_l_prime(request.snp_b)) {
    return make_error(Errc::bad_message, "moments request SNP outside L'");
  }
  MomentsResponse response;
  response.request_id = request.request_id;
  response.co_count = static_cast<std::uint32_t>(
      planes_.pair_count(request.snp_a, request.snp_b));
  return response;
}

Result<LrPlanes> GdoEnclave::on_phase2(const Phase2Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase2 before study announce");
  }
  if (result.num_tiles == 0 || result.tile_index >= result.num_tiles) {
    return make_error(Errc::bad_message, "phase2 tile index out of range");
  }
  // The leader sends each tile once, in order, so L'' assembles exactly as
  // it sliced it; a repeated tile is as much a violation as a skipped one.
  if (result.tile_index != phase2_next_tile_) {
    return make_error(Errc::state_violation,
                      result.tile_index < phase2_next_tile_
                          ? "phase2 tile repeated"
                          : "phase2 tile out of order");
  }
  // L'' is a subset of L' the leader streams in ascending order, so every
  // SNP must be in L' and above the last one answered (across tiles too).
  const std::uint32_t* previous =
      l_double_prime_.empty() ? nullptr : &l_double_prime_.back();
  for (const std::uint32_t& snp : result.retained) {
    if (!in_l_prime(snp)) {
      return make_error(Errc::bad_message, "phase2 SNP outside L'");
    }
    if (previous != nullptr && snp <= *previous) {
      return make_error(Errc::bad_message,
                        "phase2 SNPs not strictly ascending");
    }
    previous = &snp;
  }
  l_double_prime_.insert(l_double_prime_.end(), result.retained.begin(),
                         result.retained.end());
  phase2_next_tile_ = result.tile_index + 1;

  // The tile's SNP-major planes, copied verbatim: padding bits past n_case
  // are already zero in BitPlanes.
  LrPlanes planes;
  planes.tile_index = result.tile_index;
  planes.width = static_cast<std::uint32_t>(result.retained.size());
  planes.words_per_column =
      static_cast<std::uint32_t>(planes_.words_per_plane());
  planes.words.reserve(result.retained.size() * planes_.words_per_plane());
  for (std::uint32_t snp : result.retained) {
    const std::uint64_t* plane = planes_.plane(snp);
    planes.words.insert(planes.words.end(), plane,
                        plane + planes_.words_per_plane());
  }
  return planes;
}

Status GdoEnclave::on_phase3(const Phase3Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase3 before study announce");
  }
  // L_safe is a subset of the L'' this member assembled in phase 2, in
  // ascending order.
  for (std::size_t i = 0; i < result.safe.size(); ++i) {
    if (i > 0 && result.safe[i] <= result.safe[i - 1]) {
      return make_error(Errc::bad_message, "safe SNPs not strictly ascending");
    }
    if (!std::binary_search(l_double_prime_.begin(), l_double_prime_.end(),
                            result.safe[i])) {
      return make_error(Errc::bad_message, "safe SNP outside L''");
    }
  }
  l_safe_ = result.safe;
  study_complete_ = true;
  return Status::success();
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> intersect_sorted(
    const std::vector<std::vector<std::uint32_t>>& lists) {
  if (lists.empty()) return {};
  std::vector<std::uint32_t> result = lists[0];
  for (std::size_t i = 1; i < lists.size(); ++i) {
    std::vector<std::uint32_t> next;
    std::set_intersection(result.begin(), result.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    result = std::move(next);
  }
  return result;
}

std::vector<std::vector<std::uint32_t>> Coordinator::build_combinations(
    std::uint32_t num_gdos, const CollusionPolicy& policy) {
  std::vector<std::vector<std::uint32_t>> combinations;
  auto add_for_f = [&](unsigned f) {
    const auto subsets = common::combinations(num_gdos, num_gdos - f);
    for (const auto& subset : subsets) {
      std::vector<std::uint32_t> members(subset.begin(), subset.end());
      combinations.push_back(std::move(members));
    }
  };
  switch (policy.mode) {
    case CollusionPolicy::Mode::none:
      add_for_f(0);
      break;
    case CollusionPolicy::Mode::fixed_f:
      add_for_f(std::min<unsigned>(policy.f, num_gdos - 1));
      break;
    case CollusionPolicy::Mode::all_f:
      for (unsigned f = 1; f < num_gdos; ++f) add_for_f(f);
      break;
  }
  return combinations;
}

namespace {
/// A member's input refused: bad_message naming the GDO.
common::Error refused(std::uint32_t gdo_index, const std::string& why) {
  return make_error(Errc::bad_message,
                    "gdo " + std::to_string(gdo_index) + ": " + why);
}

/// Why member `gdo_index`'s count `co` for the pair (a, b) is refused.
common::Error impossible_count(std::uint32_t gdo_index, std::uint32_t a,
                               std::uint32_t b, std::uint32_t co) {
  return refused(gdo_index, "co-occurrence count " + std::to_string(co) +
                                " of SNPs " + std::to_string(a) + " and " +
                                std::to_string(b) +
                                " disagrees with the phase-1 counts");
}
}  // namespace

Coordinator::Coordinator(GdoEnclave& leader_enclave,
                         genome::BitPlanes reference, std::uint32_t num_gdos,
                         const StudyConfig& config,
                         const CollusionPolicy& policy)
    : leader_(&leader_enclave),
      reference_planes_(std::move(reference)),
      num_gdos_(num_gdos),
      config_(config),
      combinations_(build_combinations(num_gdos, policy)),
      summaries_(num_gdos),
      ld_cutoff_(config.ld_cutoff) {
  maf_plan_ = genome::TilePlan::over(
      static_cast<std::uint32_t>(reference_planes_.num_snps()),
      config_.snp_tile_width);
  open_stream(Stream::summaries, maf_plan_.tile_count());
  maf_survivors_.assign(combinations_.size(), {});
}

Status Coordinator::mark_gdo_dead(std::uint32_t gdo_index) {
  if (gdo_index >= num_gdos_) {
    return make_error(Errc::unknown_peer, "cannot mark unknown GDO dead");
  }
  if (gdo_index == leader_->gdo_index()) {
    return make_error(Errc::invalid_argument,
                      "the coordinating leader cannot be marked dead");
  }
  dead_gdos_.insert(gdo_index);
  return Status::success();
}

bool Coordinator::combination_live(std::size_t combination_id) const {
  for (std::uint32_t g : combinations_[combination_id]) {
    if (dead_gdos_.count(g) > 0) return false;
  }
  return true;
}

std::size_t Coordinator::live_combination_count() const {
  std::size_t live = 0;
  for (std::size_t c = 0; c < combinations_.size(); ++c) {
    if (combination_live(c)) ++live;
  }
  return live;
}

std::size_t Coordinator::combination_members_total() const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < combinations_.size(); ++c) {
    if (combination_live(c)) total += combinations_[c].size();
  }
  return total;
}

std::vector<std::uint32_t> Coordinator::case_populations() const {
  std::vector<std::uint32_t> populations(num_gdos_, 0);
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (summaries_[g].has_value()) populations[g] = summaries_[g]->n_case;
  }
  return populations;
}

void Coordinator::open_stream(Stream stream, std::uint32_t tile_count) {
  arrivals(stream).tile_count = tile_count;
  arrivals(stream).received.assign(num_gdos_, 0);
}

Status Coordinator::admit_tile(Stream stream, std::uint32_t gdo_index,
                               std::uint32_t tile) const {
  static constexpr std::array<const char*, 3> kNames = {"summary", "LD window",
                                                        "LR plane"};
  const TileArrivals& record = arrivals(stream);
  const std::uint32_t next = record.received[gdo_index];
  if (tile < record.tile_count && tile == next) return Status::success();
  return refused(gdo_index,
                 kNames[static_cast<std::size_t>(stream)] +
                     std::string(tile >= record.tile_count
                                     ? " tile index out of range"
                                 : tile < next ? " tile repeated"
                                               : " tile out of order"));
}

bool Coordinator::tile_arrived(Stream stream, std::uint32_t tile) const {
  const TileArrivals& record = arrivals(stream);
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) continue;  // the leader's data is local
    if (dead_gdos_.count(g) > 0) continue;    // dead GDOs never report
    if (!record.open() || record.received[g] <= tile) return false;
  }
  return true;
}

std::set<std::uint32_t> Coordinator::members_owing(Stream stream) const {
  const TileArrivals& record = arrivals(stream);
  std::set<std::uint32_t> owing;
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index() || dead_gdos_.count(g) > 0) continue;
    if (!record.open() || record.received[g] < record.tile_count) {
      owing.insert(g);
    }
  }
  return owing;
}

common::Error Coordinator::no_live_combination_error(
    const std::string& phase) const {
  std::string message =
      phase + " aborted: every combination contains an unresponsive GDO;"
              " dead gdo(s):";
  for (std::uint32_t g : dead_gdos_) message += " " + std::to_string(g);
  return make_error(Errc::timeout, message);
}

Status Coordinator::add_summary(std::uint32_t gdo_index,
                                const SummaryStats& stats) {
  if (gdo_index >= num_gdos_ || gdo_index == leader_->gdo_index()) {
    return make_error(Errc::unknown_peer, "summary from unknown GDO");
  }
  if (Status s = admit_tile(Stream::summaries, gdo_index, stats.tile_index);
      !s.ok()) {
    return s;
  }
  if (stats.case_counts.size() != maf_plan_.width_of(stats.tile_index)) {
    return refused(gdo_index, "summary count vector wrong size");
  }
  for (std::uint32_t count : stats.case_counts) {
    if (count > stats.n_case) {
      return refused(gdo_index, "allele count exceeds population size");
    }
  }
  // Tiles assemble into one full-width summary; n_case rides along on every
  // tile and must never change mid-stream.
  auto& slot = summaries_[gdo_index];
  if (!slot.has_value()) {
    SummaryStats full;
    full.case_counts.assign(reference_planes_.num_snps(), 0);
    full.n_case = stats.n_case;
    slot = std::move(full);
  } else if (slot->n_case != stats.n_case) {
    return refused(gdo_index,
                   "population size differs across summary tiles");
  }
  std::copy(stats.case_counts.begin(), stats.case_counts.end(),
            slot->case_counts.begin() + maf_plan_.begin(stats.tile_index));
  ++arrivals(Stream::summaries).received[gdo_index];
  return Status::success();
}

void Coordinator::assess_maf_tile(std::uint32_t tile) {
  if (!maf_span_.has_value()) {
    maf_span_.emplace(obs::recorder_of(obs_), "phase.maf", study_span_);
  }
  const obs::ScopedSpan tile_span(obs::recorder_of(obs_),
                                  "maf.tile." + std::to_string(tile),
                                  maf_span_->id());
  obs::add_counter(obs_, "coordinator.maf_tiles");
  const double cutoff = config_.maf_cutoff;
  const std::uint32_t begin = maf_plan_.begin(tile);
  const std::uint32_t width = maf_plan_.width_of(tile);
  for (std::size_t c = 0; c < combinations_.size(); ++c) {
    if (!combination_live(c)) continue;  // skip combos with dead members
    obs::add_counter(obs_, "coordinator.maf_combinations");
    obs::add_counter(obs_, "coordinator.maf_snps_evaluated", width);
    const auto& members = combinations_[c];
    std::uint64_t n_total = reference_planes_.num_individuals();
    for (std::uint32_t g : members) n_total += summaries_[g]->n_case;
    std::vector<double> maf(width, 0.0);
    for (std::uint32_t i = 0; i < width; ++i) {
      std::uint64_t count = reference_planes_.allele_count(begin + i);
      for (std::uint32_t g : members) {
        count += summaries_[g]->case_counts[begin + i];
      }
      maf[i] = stats::minor_allele_frequency(count, n_total);
    }
    // maf_filter decides per SNP, so filtering the tile and offsetting the
    // survivors equals filtering the full vector restricted to the tile;
    // ascending-tile appends keep each combination's list sorted.
    for (std::uint32_t local : stats::maf_filter(maf, cutoff)) {
      maf_survivors_[c].push_back(begin + local);
    }
  }
}

std::size_t Coordinator::assess_ready_maf_tiles() {
  // The leader's own summary enters directly (no network round trip).
  if (!summaries_[leader_->gdo_index()].has_value()) {
    summaries_[leader_->gdo_index()] = leader_->make_summary_stats();
  }
  std::size_t assessed = 0;
  while (next_maf_tile_ < maf_plan_.tile_count() &&
         tile_arrived(Stream::summaries, next_maf_tile_)) {
    assess_maf_tile(next_maf_tile_);
    ++next_maf_tile_;
    ++assessed;
  }
  return assessed;
}

Result<Phase1Result> Coordinator::run_maf_phase() {
  // Tiles are assessed once they arrived from every live member, so every
  // tile assessed means every summary arrived.
  assess_ready_maf_tiles();
  if (next_maf_tile_ < maf_plan_.tile_count()) {
    maf_span_.reset();
    return make_error(Errc::state_violation,
                      "MAF phase before all summaries arrived");
  }
  std::vector<std::vector<std::uint32_t>> per_combination;
  per_combination.reserve(combinations_.size());
  for (std::size_t c = 0; c < combinations_.size(); ++c) {
    // Only combinations still live saw every tile assessed (liveness is
    // monotone); partially assessed lists of since-died combinations drop.
    if (combination_live(c)) per_combination.push_back(maf_survivors_[c]);
  }
  maf_span_.reset();
  if (per_combination.empty()) {
    return no_live_combination_error("MAF phase");
  }

  l_prime_ = intersect_sorted(per_combination);
  outcome_.l_prime = l_prime_;
  ld_plan_ = genome::TilePlan::over(static_cast<std::uint32_t>(l_prime_.size()),
                                    config_.snp_tile_width);
  ld_windows_.clear();
  ld_windows_.resize(ld_plan_.tile_count());
  for (std::vector<HeldWindow>& tile : ld_windows_) tile.resize(num_gdos_);
  open_stream(Stream::ld_windows, ld_plan_.tile_count());
  Phase1Result result;
  result.retained = l_prime_;
  return result;
}

void Coordinator::compute_association_p_values() {
  // Blocks of ranks split a single combination's vector too (Fig. 6).
  constexpr std::size_t kRankBlock = 1024;
  const std::size_t ranks = l_prime_.size();
  const std::size_t blocks = (ranks + kRankBlock - 1) / kRankBlock;
  std::vector<std::size_t> live;
  std::vector<std::uint64_t> n_case(combinations_.size(), 0);
  for (std::size_t c = 0; c < combinations_.size(); ++c) {
    if (!combination_live(c)) continue;
    live.push_back(c);
    ld_association_p_[c].resize(ranks);
    for (std::uint32_t g : combinations_[c]) n_case[c] += summaries_[g]->n_case;
  }
  const std::uint64_t n_ref = reference_planes_.num_individuals();
  // Each unit writes its own slice of one preallocated vector and reads
  // only state fixed before the LD phase.
  const auto fill = [&](std::size_t unit) {
    const std::size_t c = live[unit / blocks];
    const std::size_t begin = unit % blocks * kRankBlock;
    const std::size_t end = std::min(ranks, begin + kRankBlock);
    for (std::size_t rank = begin; rank < end; ++rank) {
      const std::uint32_t l = l_prime_[rank];
      std::uint64_t case_minor = 0;
      for (std::uint32_t g : combinations_[c]) {
        case_minor += summaries_[g]->case_counts[l];
      }
      const stats::SinglewiseTable table{
          case_minor, n_case[c], reference_planes_.allele_count(l), n_ref};
      ld_association_p_[c][rank] = stats::chi2_p_value(table);
    }
  };
  const std::size_t units = live.size() * blocks;
  if (pool_ != nullptr) {
    pool_->parallel_for(units, fill);
  } else {
    for (std::size_t unit = 0; unit < units; ++unit) fill(unit);
  }
  obs::add_counter(obs_, "coordinator.chi2_values_computed",
                   live.size() * ranks);
}

std::optional<stats::LdMoments> Coordinator::member_moments(
    std::uint32_t gdo_index, std::uint32_t a, std::uint32_t b,
    std::uint32_t co) const {
  const SummaryStats& summary = *summaries_[gdo_index];
  const std::uint32_t count_a = summary.case_counts[a];
  const std::uint32_t count_b = summary.case_counts[b];
  if (co > std::min(count_a, count_b) ||
      std::uint64_t{count_a} + count_b - co > summary.n_case) {
    return std::nullopt;
  }
  // Binary genotypes: x = x^2, so the five sums need one count per SNP and
  // the pair's co-occurrence count; integer sums are exact in double.
  stats::LdMoments moments;
  moments.mu_x = count_a;
  moments.mu_x2 = count_a;
  moments.mu_y = count_b;
  moments.mu_y2 = count_b;
  moments.mu_xy = co;
  moments.n = summary.n_case;
  return moments;
}

Status Coordinator::add_ld_window(std::uint32_t gdo_index, LdWindow window) {
  if (gdo_index >= num_gdos_ || gdo_index == leader_->gdo_index()) {
    return make_error(Errc::unknown_peer, "LD window from unknown GDO");
  }
  // A late window from a GDO already declared dead: its combinations are
  // skipped, so the window is dropped.
  if (dead_gdos_.count(gdo_index) > 0) return Status::success();
  if (!arrivals(Stream::ld_windows).open() ||
      !summaries_[gdo_index].has_value()) {
    return refused(gdo_index, "LD window before the phase-1 result");
  }
  const std::uint32_t tile = window.tile_index;
  if (Status s = admit_tile(Stream::ld_windows, gdo_index, tile); !s.ok()) {
    return s;
  }
  const std::uint32_t begin = ld_plan_.begin(tile);
  const std::uint32_t width = ld_plan_.width_of(tile);
  if (window.counts.size() != std::size_t{width} * kLdWindow) {
    return refused(gdo_index,
                   "LD window size is not the tile width times the window");
  }
  auto held = leader_->reserve_epc(window.counts.size() * 4);
  if (!held.ok()) return held.error();
  for (std::uint32_t i = 0; i < width; ++i) {
    const std::uint32_t rank = begin + i;
    for (std::uint32_t d = 1; d <= kLdWindow; ++d) {
      const std::uint32_t co =
          window.counts[std::size_t{i} * kLdWindow + d - 1];
      if (d > rank) {
        if (co != 0) {
          return refused(gdo_index, "LD window padding nonzero at rank " +
                                        std::to_string(rank));
        }
        continue;
      }
      const std::uint32_t a = l_prime_[rank - d];
      const std::uint32_t b = l_prime_[rank];
      if (!member_moments(gdo_index, a, b, co).has_value()) {
        return impossible_count(gdo_index, a, b, co);
      }
    }
  }
  ++arrivals(Stream::ld_windows).received[gdo_index];
  obs::add_counter(obs_, "ld.window_tiles");
  HeldWindow& slot = ld_windows_[tile][gdo_index];
  if (tile == next_ld_tile_) {
    slot.counts = std::move(window.counts);
    slot.epc = std::move(held).take();
  } else {
    // Ahead of the walk: sealed out of the enclave until its tile is next,
    // so the windows held in EPC stay O(tile).
    slot.sealed = leader_->seal(wire::encode(window));
    obs::add_counter(obs_, "ld.window_tiles_sealed_out");
  }
  return Status::success();
}

void Coordinator::begin_ld_phase() {
  if (ld_started_) return;
  ld_started_ = true;
  ld_span_.emplace(obs::recorder_of(obs_), "phase.ld", study_span_);
  const std::size_t num_combinations = combinations_.size();
  ld_walks_.assign(num_combinations, stats::LdWalk());
  ld_association_p_.assign(num_combinations, {});
  ld_combination_spans_.clear();
  ld_combination_spans_.resize(num_combinations);
  for (std::size_t c = 0; c < num_combinations; ++c) {
    if (!combination_live(c)) continue;
    obs::add_counter(obs_, "coordinator.ld_combinations");
    ld_combination_spans_[c].emplace(obs::recorder_of(obs_),
                                     "ld.combination." + std::to_string(c),
                                     ld_span_->id());
  }
  compute_association_p_values();
}

Coordinator::PairMoments& Coordinator::touch_pair(std::uint32_t anchor,
                                                  std::uint32_t rank) {
  auto [it, created] = rank_pairs_.try_emplace(anchor);
  PairMoments& entry = it->second;
  if (!created) return entry;
  ++ld_pairs_;
  const std::uint32_t a = l_prime_[anchor];
  const std::uint32_t b = l_prime_[rank];
  // The leader's own and the reference moments are computed locally
  // (word-parallel planes).
  entry.reference = stats::compute_ld_moments(reference_planes_, a, b);
  entry.slots.resize(num_gdos_);
  entry.slots[leader_->gdo_index()] =
      stats::compute_ld_moments(leader_->planes(), a, b);
  // Served by the windows when every live member's count is in one (with no
  // live member, every pair is).
  const std::uint32_t distance = rank - anchor;
  const std::size_t offset =
      std::size_t{rank - ld_plan_.begin(next_ld_tile_)} * kLdWindow +
      distance - 1;
  std::vector<std::uint32_t> live;
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index() || dead_gdos_.count(g) > 0) continue;
    live.push_back(g);
    if (distance > kLdWindow) continue;
    // Validated on arrival (add_ld_window).
    entry.slots[g] = member_moments(
        g, a, b, ld_windows_[next_ld_tile_][g].counts[offset]);
  }
  if (distance <= kLdWindow || live.empty()) {
    ++ld_window_pairs_unflushed_;
    return entry;
  }
  // Beyond the window: one request to every live member, whether or not
  // the combination at hand needs them, so each later combination reads the
  // pair from the cache. One sequential round trip on the LD critical path.
  OpenRequest& open = ld_request_.emplace();
  open.request.request_id = next_moments_request_++;
  open.request.snp_a = a;
  open.request.snp_b = b;
  open.anchor = anchor;
  open.addressed = std::move(live);
  obs::add_counter(obs_, "ld.round_trips");
  obs::add_counter(obs_, "coordinator.ld_member_requests",
                   open.addressed.size());
  return entry;
}

std::set<std::uint32_t> Coordinator::members_owing_moments() const {
  std::set<std::uint32_t> owing;
  if (!ld_request_.has_value()) return owing;
  const PairMoments& entry = rank_pairs_.at(ld_request_->anchor);
  for (std::uint32_t g : ld_request_->addressed) {
    if (dead_gdos_.count(g) == 0 && !entry.slots[g].has_value()) {
      owing.insert(g);
    }
  }
  return owing;
}

Status Coordinator::add_moments(std::uint32_t gdo_index,
                                const MomentsResponse& response) {
  if (!ld_request_.has_value()) {
    return refused(gdo_index, "moments response without an open request");
  }
  const std::vector<std::uint32_t>& addressed = ld_request_->addressed;
  if (std::find(addressed.begin(), addressed.end(), gdo_index) ==
      addressed.end()) {
    return refused(gdo_index,
                   "moments response to a request that did not address it");
  }
  std::optional<stats::LdMoments>& slot =
      rank_pairs_.at(ld_request_->anchor).slots[gdo_index];
  if (slot.has_value()) return refused(gdo_index, "moments response repeated");
  const MomentsRequest& request = ld_request_->request;
  if (response.request_id != request.request_id) {
    return refused(gdo_index, "moments response to another request");
  }
  slot = member_moments(gdo_index, request.snp_a, request.snp_b,
                        response.co_count);
  if (!slot.has_value()) {
    return impossible_count(gdo_index, request.snp_a, request.snp_b,
                            response.co_count);
  }
  return Status::success();
}

Status Coordinator::open_ld_tile() {
  ld_tile_span_.emplace(obs::recorder_of(obs_),
                        "ld.tile." + std::to_string(next_ld_tile_),
                        ld_span_->id());
  ld_rank_ = ld_plan_.begin(next_ld_tile_);
  for (HeldWindow& window : ld_windows_[next_ld_tile_]) {
    if (window.sealed.empty()) continue;
    auto plaintext = leader_->unseal(window.sealed);
    if (!plaintext.ok()) return plaintext.error();
    auto unsealed = wire::decode<LdWindow>(plaintext.value());
    if (!unsealed.ok()) return unsealed.error();
    auto held = leader_->reserve_epc(unsealed.value().counts.size() * 4);
    if (!held.ok()) return held.error();
    window.counts = std::move(unsealed).take().counts;
    window.epc = std::move(held).take();
    window.sealed.clear();
  }
  return Status::success();
}

Result<std::optional<MomentsRequest>> Coordinator::advance_ld_walks() {
  begin_ld_phase();
  auto walked = walk_ready_ld_tiles();
  // Every exit of the walk, a stop on a request or a failure included, adds
  // the pairs it counted, so ld.window_pairs + ld.round_trips ==
  // coordinator.ld_pairs_fetched holds at any stop. Both counters are added
  // together, so a walk that never needs chi2_sf reports 0 evaluations.
  if (ld_window_pairs_unflushed_ + ld_p_values_unflushed_ > 0) {
    obs::add_counter(obs_, "ld.window_pairs", ld_window_pairs_unflushed_);
    obs::add_counter(obs_, "ld.p_values_evaluated", ld_p_values_unflushed_);
    ld_window_pairs_unflushed_ = 0;
    ld_p_values_unflushed_ = 0;
  }
  return walked;
}

Result<std::optional<MomentsRequest>> Coordinator::walk_ready_ld_tiles() {
  if (!members_owing_moments().empty()) return std::optional<MomentsRequest>();
  ld_request_.reset();
  while (next_ld_tile_ < ld_plan_.tile_count() &&
         tile_arrived(Stream::ld_windows, next_ld_tile_)) {
    if (!ld_tile_span_.has_value()) {
      if (Status s = open_ld_tile(); !s.ok()) {
        ld_tile_span_.reset();
        ld_combination_spans_.clear();
        ld_span_.reset();
        return s.error();
      }
    }
    // Each rank's pairs are decided combination by combination; a walk
    // already past ld_rank_ was stepped before the walk stopped on a
    // request. A member with an empty slot after its request died, so its
    // combinations are no longer live.
    for (; ld_rank_ < ld_plan_.end(next_ld_tile_); ++ld_rank_) {
      for (std::size_t c = 0; c < ld_walks_.size(); ++c) {
        stats::LdWalk& walk = ld_walks_[c];
        if (!combination_live(c) || walk.next() != ld_rank_) continue;
        const PairMoments& entry = touch_pair(walk.anchor(), ld_rank_);
        if (ld_request_.has_value()) {
          return std::optional<MomentsRequest>(ld_request_->request);
        }
        stats::LdMoments total = entry.reference;
        for (std::uint32_t g : combinations_[c]) total += *entry.slots[g];
        const stats::LdCutoff::Decision decision =
            ld_cutoff_.decide(stats::ld_statistic(total));
        ld_p_values_unflushed_ += decision.evaluated;
        walk.step(decision.independent, ld_association_p_[c][walk.anchor()],
                  ld_association_p_[c][ld_rank_]);
      }
      rank_pairs_.clear();
    }
    ld_windows_[next_ld_tile_].clear();  // releases their EPC
    ld_tile_span_.reset();
    ++next_ld_tile_;
  }
  return std::optional<MomentsRequest>();
}

Result<Phase2Result> Coordinator::run_ld_phase() {
  // Tiles are walked once their windows arrived from every live member and
  // each request was answered, so every tile walked means the walk is done.
  // A walk that is not done can still resume.
  if (!ld_started_ || next_ld_tile_ < ld_plan_.tile_count()) {
    return make_error(Errc::state_violation,
                      "LD phase before every window and answer arrived");
  }
  ld_combination_spans_.clear();
  const std::size_t num_combinations = combinations_.size();

  // A death discovered mid-phase invalidates every combination containing
  // the dead GDO, including ones whose walk had already finished (their LR
  // planes could never be gathered in phase 3).
  std::vector<std::vector<std::uint32_t>> live_lists;
  for (std::size_t c = 0; c < num_combinations; ++c) {
    if (combination_live(c)) {
      live_lists.push_back(ld_walks_[c].survivors(l_prime_));
    }
  }
  ld_span_.reset();
  if (live_lists.empty()) {
    return no_live_combination_error("LD phase");
  }
  l_double_prime_ = intersect_sorted(live_lists);
  outcome_.l_double_prime = l_double_prime_;
  obs::add_counter(obs_, "coordinator.ld_pairs_fetched", ld_pairs_);

  // Fix the phase-3 tile plan over L'' and size the per-GDO plane stores.
  // From here on, phase-2 bodies and member planes travel in L''-column
  // tiles.
  lr_plan_ = genome::TilePlan::over(
      static_cast<std::uint32_t>(l_double_prime_.size()),
      config_.snp_tile_width);
  lr_planes_.assign(num_gdos_, {});
  lr_planes_epc_.clear();
  lr_planes_epc_.resize(num_gdos_);
  open_stream(Stream::lr_planes, lr_plan_.tile_count());
  Phase2Result result;
  result.retained = l_double_prime_;
  return result;
}

std::vector<Phase2Result> Coordinator::phase2_tiles() {
  lr_span_.emplace(obs::recorder_of(obs_), "phase.lr", study_span_);
  lr_tile_spans_.clear();
  lr_tile_spans_.resize(lr_plan_.tile_count());
  for (std::uint32_t k = 0; k < lr_plan_.tile_count(); ++k) {
    lr_tile_spans_[k].emplace(obs::recorder_of(obs_),
                              "lr.tile." + std::to_string(k), lr_span_->id());
  }
  std::vector<Phase2Result> tiles;
  tiles.reserve(lr_plan_.tile_count());
  for (std::uint32_t k = 0; k < lr_plan_.tile_count(); ++k) {
    Phase2Result tile;
    tile.retained = lr_plan_.slice(l_double_prime_, k);
    tile.tile_index = k;
    tile.num_tiles = lr_plan_.tile_count();
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

Status Coordinator::add_lr_planes(std::uint32_t gdo_index,
                                  const LrPlanes& planes) {
  if (gdo_index >= num_gdos_ || gdo_index == leader_->gdo_index()) {
    return make_error(Errc::unknown_peer, "LR planes from unknown GDO");
  }
  if (!arrivals(Stream::lr_planes).open()) {
    return make_error(Errc::state_violation, "LR planes before LD phase");
  }
  const std::uint32_t tile = planes.tile_index;
  if (Status s = admit_tile(Stream::lr_planes, gdo_index, tile); !s.ok()) {
    return s;
  }
  if (planes.width != lr_plan_.width_of(tile)) {
    return refused(gdo_index, "LR plane width differs from the tile width");
  }
  if (!summaries_[gdo_index].has_value()) {
    return refused(gdo_index,
                   "LR planes from a GDO without a phase-1 summary");
  }
  const SummaryStats& summary = *summaries_[gdo_index];
  const std::size_t words_per_column = (summary.n_case + 63) / 64;
  if (planes.words_per_column != words_per_column ||
      planes.words.size() != planes.width * words_per_column) {
    return refused(gdo_index,
                   "LR plane words per column disagree with the phase-1 "
                   "population");
  }
  auto transient = leader_->reserve_epc(planes.words.size() * 8);
  if (!transient.ok()) return transient.error();
  const std::uint64_t padding =
      summary.n_case % 64 == 0 ? 0 : ~std::uint64_t{0} << (summary.n_case % 64);
  const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
  const std::uint32_t begin = lr_plan_.begin(tile);
  for (std::uint32_t i = 0; i < planes.width; ++i) {
    const std::uint64_t* column = planes.words.data() + i * words_per_column;
    if (words_per_column > 0 && (column[words_per_column - 1] & padding) != 0) {
      return refused(gdo_index, "LR plane padding bits set past n_case");
    }
    const std::uint32_t snp = l_double_prime_[begin + i];
    if (ops.popcount_words(column, words_per_column) !=
        summary.case_counts[snp]) {
      return refused(gdo_index,
                     "LR plane popcount disagrees with the phase-1 count of "
                     "SNP " + std::to_string(snp));
    }
  }
  if (!lr_planes_epc_[gdo_index].has_value()) {
    auto stored = leader_->reserve_epc(l_double_prime_.size() *
                                       words_per_column * 8);
    if (!stored.ok()) return stored.error();
    lr_planes_epc_[gdo_index] = std::move(stored).take();
    lr_planes_[gdo_index].assign(l_double_prime_.size() * words_per_column, 0);
  }
  std::copy(planes.words.begin(), planes.words.end(),
            lr_planes_[gdo_index].begin() + begin * words_per_column);
  ++arrivals(Stream::lr_planes).received[gdo_index];
  obs::add_counter(obs_, "lr.plane_tiles_received");
  obs::add_counter(obs_, "lr.plane_bytes", planes.words.size() * 8);
  if (tile < lr_tile_spans_.size() && tile_arrived(Stream::lr_planes, tile)) {
    lr_tile_spans_[tile].reset();
  }
  return Status::success();
}

Result<Phase3Result> Coordinator::run_lr_phase() {
  if (!lr_span_.has_value()) {
    // Driven without phase2_tiles() (trusted-module tests): open the phase
    // span here so the selection spans below have their parent.
    lr_span_.emplace(obs::recorder_of(obs_), "phase.lr", study_span_);
  }
  // Tiles a since-dead member never completed close here.
  lr_tile_spans_.clear();
  if (!arrivals(Stream::lr_planes).open() ||
      !members_owing(Stream::lr_planes).empty()) {
    lr_span_.reset();
    return make_error(Errc::state_violation,
                      "LR phase before all planes arrived");
  }
  const std::size_t num_combinations = combinations_.size();
  std::vector<std::size_t> live;
  for (std::size_t c = 0; c < num_combinations; ++c) {
    if (combination_live(c)) live.push_back(c);
  }
  if (live.empty()) {
    lr_span_.reset();
    return no_live_combination_error("LR phase");
  }

  // The selection is a global greedy over all of L'' (running per-row
  // sums), so each GDO's block spans every column; the leader's own block
  // and the reference panel read their planes in place.
  std::vector<stats::PlaneBlock> blocks(num_gdos_);
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) {
      blocks[g] = stats::plane_block(leader_->planes(), l_double_prime_);
    } else if (lr_planes_epc_[g].has_value()) {
      const std::size_t words_per_column = (summaries_[g]->n_case + 63) / 64;
      blocks[g].rows = summaries_[g]->n_case;
      for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
        blocks[g].columns.push_back(lr_planes_[g].data() +
                                    i * words_per_column);
      }
    }
  }
  const stats::PlaneBlock reference =
      stats::plane_block(reference_planes_, l_double_prime_);
  // Frequencies are count / population, one divide of exact integers (0 for
  // an empty population), so the weights are bit-identical to the
  // centralized computation over the pooled counts.
  const auto frequency = [](std::uint64_t count, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(n);
  };
  const std::uint64_t n_ref = reference_planes_.num_individuals();
  std::vector<double> reference_freq(l_double_prime_.size());
  for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
    reference_freq[i] =
        frequency(reference_planes_.allele_count(l_double_prime_[i]), n_ref);
  }
  stats::LrSelectionParams params;
  params.false_positive_rate = config_.lr_false_positive_rate;
  params.power_threshold = config_.lr_power_threshold;

  // Several combinations fan out on the pool; a single one gets the pool
  // threaded into its selection instead. Never both: a nested parallel_for
  // from inside a pool worker could starve.
  const bool fan_out = pool_ != nullptr && live.size() > 1;
  std::vector<std::vector<std::uint32_t>> per_combination(num_combinations);
  std::vector<double> per_combination_power(num_combinations, 0.0);
  auto evaluate = [&](std::size_t c) {
    // Combination spans may open concurrently on pool workers; the recorder
    // is thread-safe and parents are explicit, so nesting stays correct.
    const obs::ScopedSpan combination_span(
        obs::recorder_of(obs_), "lr.combination." + std::to_string(c),
        lr_span_->id());
    obs::add_counter(obs_, "lr.selections");
    const auto& members = combinations_[c];
    std::vector<stats::PlaneBlock> case_blocks;
    for (std::uint32_t g : members) {  // ascending GDO order by construction
      case_blocks.push_back(blocks[g]);
    }
    // Case frequencies from the members' summed phase-1 counts.
    std::uint64_t n_case = 0;
    for (std::uint32_t g : members) n_case += summaries_[g]->n_case;
    std::vector<double> case_freq(l_double_prime_.size());
    for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
      std::uint64_t count = 0;
      for (std::uint32_t g : members) {
        count += summaries_[g]->case_counts[l_double_prime_[i]];
      }
      case_freq[i] = frequency(count, n_case);
    }
    const stats::LrWeights weights =
        stats::lr_weights(case_freq, reference_freq);
    const stats::LrSelectionResult selection = stats::select_safe_snps(
        case_blocks, reference, weights, params, fan_out ? nullptr : pool_);
    for (std::uint32_t column : selection.safe_columns) {
      per_combination[c].push_back(l_double_prime_[column]);
    }
    per_combination_power[c] = selection.final_power;
  };
  if (fan_out) {
    pool_->parallel_for(live.size(), [&](std::size_t i) { evaluate(live[i]); });
  } else {
    for (std::size_t c : live) evaluate(c);
  }

  std::vector<std::uint32_t> l_safe = l_double_prime_;
  double max_power = 0.0;
  for (std::size_t c : live) {
    l_safe = intersect_sorted({l_safe, per_combination[c]});
    max_power = std::max(max_power, per_combination_power[c]);
  }
  outcome_.l_safe = std::move(l_safe);
  outcome_.final_power = max_power;
  lr_span_.reset();
  Phase3Result result;
  result.safe = outcome_.l_safe;
  return result;
}

}  // namespace gendpr::core
