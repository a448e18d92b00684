#include "gendpr/trusted.hpp"

#include <algorithm>

#include "common/combinatorics.hpp"
#include "genome/kernels/kernels.hpp"
#include "wire/serialize.hpp"
#include "stats/association.hpp"

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

Status GdoEnclave::provision_dataset(genome::GenotypeMatrix cases) {
  auto allocation = reserve_epc(cases.storage_bytes());
  if (!allocation.ok()) return allocation.error();
  genome::BitPlanes planes(cases);
  auto plane_allocation = reserve_epc(planes.storage_bytes());
  if (!plane_allocation.ok()) return plane_allocation.error();
  dataset_epc_ = std::move(allocation).take();
  planes_epc_ = std::move(plane_allocation).take();
  cases_ = std::move(cases);
  planes_ = std::move(planes);
  return Status::success();
}

Status GdoEnclave::on_study_announce(const StudyAnnounce& announce) {
  if (announce.num_snps != cases_.num_snps()) {
    return make_error(Errc::invalid_argument,
                      "announced SNP count does not match local dataset");
  }
  for (const auto& combination : announce.combinations) {
    if (combination.empty()) {
      return make_error(Errc::bad_message, "empty combination in announce");
    }
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
  stats.n_case = static_cast<std::uint32_t>(cases_.num_individuals());
  return stats;
}

SummaryStats GdoEnclave::make_summary_tile(std::uint32_t snp_begin,
                                           std::uint32_t snp_end,
                                           std::uint32_t tile_index) const {
  const genome::BitPlanes::TileView view = planes_.tile(snp_begin, snp_end);
  SummaryStats stats;
  stats.case_counts.assign(view.allele_counts(),
                           view.allele_counts() + view.num_snps());
  stats.n_case = static_cast<std::uint32_t>(cases_.num_individuals());
  stats.tile_index = tile_index;
  return stats;
}

Status GdoEnclave::on_phase1(const Phase1Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase1 before study announce");
  }
  for (std::uint32_t snp : result.retained) {
    if (snp >= announce_->num_snps) {
      return make_error(Errc::bad_message, "retained SNP out of range");
    }
  }
  l_prime_ = result.retained;
  return Status::success();
}

Result<MomentsResponse> GdoEnclave::on_moments_request(
    const MomentsRequest& request) const {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation,
                      "moments request before study announce");
  }
  if (request.snp_a >= cases_.num_snps() ||
      request.snp_b >= cases_.num_snps()) {
    return make_error(Errc::bad_message, "moments request SNP out of range");
  }
  MomentsResponse response;
  response.request_id = request.request_id;
  response.moments =
      stats::compute_ld_moments(planes_, request.snp_a, request.snp_b);
  return response;
}

Result<LrPlanes> GdoEnclave::on_phase2(const Phase2Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase2 before study announce");
  }
  if (result.num_tiles == 0 || result.tile_index >= result.num_tiles) {
    return make_error(Errc::bad_message, "phase2 tile index out of range");
  }
  // Tile 0 starts (or restarts) the phase-2 stream; later tiles must arrive
  // in order so L'' assembles exactly as the leader sliced it.
  if (result.tile_index == 0) {
    l_double_prime_.clear();
    phase2_next_tile_ = 0;
  }
  if (result.tile_index != phase2_next_tile_) {
    return make_error(Errc::state_violation, "phase2 tile out of order");
  }
  const std::size_t num_gdos = result.case_counts_per_gdo.size();
  if (result.n_case_per_gdo.size() != num_gdos) {
    return make_error(Errc::bad_message,
                      "per-GDO population vector size mismatch");
  }
  if (gdo_index_ >= num_gdos) {
    return make_error(Errc::bad_message,
                      "per-GDO counts do not cover this GDO");
  }
  for (std::uint32_t snp : result.retained) {
    if (snp >= cases_.num_snps()) {
      return make_error(Errc::bad_message, "phase2 SNP out of range");
    }
  }
  if (result.reference_freq.size() != result.retained.size()) {
    return make_error(Errc::bad_message, "reference frequency size mismatch");
  }
  for (std::uint32_t dead : result.dead_gdos) {
    if (dead == gdo_index_) {
      return make_error(Errc::state_violation,
                        "leader declared this GDO dead yet keeps talking");
    }
  }
  // The leader cannot misattribute this GDO's contribution: its slot must
  // match the local dataset exactly (the counts it reported in phase 1,
  // restricted to L'').
  if (result.n_case_per_gdo[gdo_index_] != cases_.num_individuals() ||
      result.case_counts_per_gdo[gdo_index_] !=
          planes_.allele_counts(result.retained)) {
    return make_error(Errc::bad_message,
                      "per-GDO counts disagree with the local dataset");
  }
  l_double_prime_.insert(l_double_prime_.end(), result.retained.begin(),
                         result.retained.end());
  phase2_next_tile_ = result.tile_index + 1;

  // Every live combination containing this GDO must carry well-formed
  // co-member slots: the leader weighs these bits with exactly those counts.
  std::vector<bool> slot_checked(num_gdos, false);
  for (const auto& members : announce_->combinations) {
    if (std::find(members.begin(), members.end(), gdo_index_) ==
        members.end()) {
      continue;  // this GDO's data is not part of the combination
    }
    const bool combination_dead = std::any_of(
        result.dead_gdos.begin(), result.dead_gdos.end(),
        [&members](std::uint32_t dead) {
          return std::find(members.begin(), members.end(), dead) !=
                 members.end();
        });
    if (combination_dead) {
      continue;  // unresponsive member: the leader dropped this combination
    }
    for (std::uint32_t g : members) {
      if (g >= num_gdos) {
        return make_error(Errc::bad_message,
                          "combination member outside the per-GDO counts");
      }
      if (slot_checked[g]) continue;
      slot_checked[g] = true;
      if (result.case_counts_per_gdo[g].size() != result.retained.size()) {
        return make_error(Errc::bad_message,
                          "per-GDO count vector size mismatch");
      }
      for (std::uint32_t count : result.case_counts_per_gdo[g]) {
        if (count > result.n_case_per_gdo[g]) {
          return make_error(Errc::bad_message,
                            "allele count exceeds population size");
        }
      }
    }
  }

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

common::Bytes GdoEnclave::seal_study_checkpoint() {
  wire::Writer w;
  w.u8(study_complete_ ? 1 : 0);
  w.vector_u32(l_prime_);
  w.vector_u32(l_double_prime_);
  w.vector_u32(l_safe_);
  return seal(w.buffer());
}

Status GdoEnclave::restore_study_checkpoint(common::BytesView sealed) {
  auto plaintext = unseal(sealed);
  if (!plaintext.ok()) return plaintext.error();
  wire::Reader r(plaintext.value());
  auto complete = r.u8();
  if (!complete.ok()) return complete.error();
  auto l_prime = r.vector_u32();
  if (!l_prime.ok()) return l_prime.error();
  auto l_double_prime = r.vector_u32();
  if (!l_double_prime.ok()) return l_double_prime.error();
  auto l_safe = r.vector_u32();
  if (!l_safe.ok()) return l_safe.error();
  if (!r.exhausted()) {
    return make_error(Errc::bad_message, "trailing bytes in checkpoint");
  }
  study_complete_ = complete.value() != 0;
  l_prime_ = std::move(l_prime).take();
  l_double_prime_ = std::move(l_double_prime).take();
  l_safe_ = std::move(l_safe).take();
  return Status::success();
}

Status GdoEnclave::on_phase3(const Phase3Result& result) {
  if (!announce_.has_value()) {
    return make_error(Errc::state_violation, "phase3 before study announce");
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
/// Thrown by aggregate_pair when a member response is absent; converted to a
/// protocol error at the run_ld_phase boundary.
struct MissingMomentsError {
  std::uint32_t gdo_index;
};
}  // namespace

Coordinator::Coordinator(GdoEnclave& leader_enclave,
                         genome::GenotypeMatrix reference,
                         std::uint32_t num_gdos, StudyAnnounce announce)
    : leader_(&leader_enclave),
      reference_(std::move(reference)),
      reference_planes_(reference_),
      num_gdos_(num_gdos),
      announce_(std::move(announce)),
      summaries_(num_gdos) {
  reference_counts_ = reference_planes_.allele_counts();
  maf_plan_ = genome::TilePlan::over(announce_.num_snps,
                                     announce_.config.snp_tile_width);
  summary_tiles_.assign(
      num_gdos_, std::vector<bool>(maf_plan_.tile_count(), false));
  maf_survivors_.assign(announce_.combinations.size(), {});
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
  for (std::uint32_t g : announce_.combinations[combination_id]) {
    if (dead_gdos_.count(g) > 0) return false;
  }
  return true;
}

std::size_t Coordinator::live_combination_count() const {
  std::size_t live = 0;
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (combination_live(c)) ++live;
  }
  return live;
}

std::size_t Coordinator::combination_members_total() const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (combination_live(c)) total += announce_.combinations[c].size();
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
  if (gdo_index >= num_gdos_) {
    return make_error(Errc::unknown_peer, "summary from unknown GDO");
  }
  if (stats.tile_index >= maf_plan_.tile_count()) {
    return make_error(Errc::bad_message, "summary tile index out of range");
  }
  if (stats.case_counts.size() != maf_plan_.width_of(stats.tile_index)) {
    return make_error(Errc::bad_message, "summary count vector wrong size");
  }
  for (std::uint32_t count : stats.case_counts) {
    if (count > stats.n_case) {
      return make_error(Errc::bad_message,
                        "allele count exceeds population size");
    }
  }
  if (summary_tiles_[gdo_index][stats.tile_index]) {
    return make_error(Errc::bad_message, "duplicate summary tile");
  }
  // Tiles assemble into one full-width summary; n_case rides along on every
  // tile and must never change mid-stream.
  auto& slot = summaries_[gdo_index];
  if (!slot.has_value()) {
    SummaryStats full;
    full.case_counts.assign(announce_.num_snps, 0);
    full.n_case = stats.n_case;
    slot = std::move(full);
  } else if (slot->n_case != stats.n_case) {
    return make_error(Errc::bad_message,
                      "population size differs across summary tiles");
  }
  std::copy(stats.case_counts.begin(), stats.case_counts.end(),
            slot->case_counts.begin() + maf_plan_.begin(stats.tile_index));
  summary_tiles_[gdo_index][stats.tile_index] = true;
  return Status::success();
}

bool Coordinator::phase1_ready() const noexcept {
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) continue;  // leader's summary is local
    if (dead_gdos_.count(g) > 0) continue;    // dead GDOs never report
    for (std::uint32_t k = 0; k < maf_plan_.tile_count(); ++k) {
      if (!summary_tiles_[g][k]) return false;
    }
  }
  return true;
}

bool Coordinator::maf_tile_ready(std::uint32_t tile) const {
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) continue;
    if (dead_gdos_.count(g) > 0) continue;
    if (!summary_tiles_[g][tile]) return false;
  }
  return true;
}

void Coordinator::assess_maf_tile(std::uint32_t tile) {
  if (!maf_span_.has_value()) {
    maf_span_.emplace(obs::recorder_of(obs_), "phase.maf", study_span_);
  }
  const obs::ScopedSpan tile_span(obs::recorder_of(obs_),
                                  "maf.tile." + std::to_string(tile),
                                  maf_span_->id());
  obs::add_counter(obs_, "coordinator.maf_tiles");
  const double cutoff = announce_.config.maf_cutoff;
  const std::uint32_t begin = maf_plan_.begin(tile);
  const std::uint32_t width = maf_plan_.width_of(tile);
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
    if (!combination_live(c)) continue;  // skip combos with dead members
    obs::add_counter(obs_, "coordinator.maf_combinations");
    obs::add_counter(obs_, "coordinator.maf_snps_evaluated", width);
    const auto& members = announce_.combinations[c];
    std::uint64_t n_total = reference_.num_individuals();
    for (std::uint32_t g : members) n_total += summaries_[g]->n_case;
    std::vector<double> maf(width, 0.0);
    for (std::uint32_t i = 0; i < width; ++i) {
      std::uint64_t count = reference_counts_[begin + i];
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
         maf_tile_ready(next_maf_tile_)) {
    assess_maf_tile(next_maf_tile_);
    ++next_maf_tile_;
    ++assessed;
  }
  return assessed;
}

Result<Phase1Result> Coordinator::run_maf_phase() {
  assess_ready_maf_tiles();
  if (!phase1_ready() || next_maf_tile_ < maf_plan_.tile_count()) {
    maf_span_.reset();
    return make_error(Errc::state_violation,
                      "MAF phase before all summaries arrived");
  }
  std::vector<std::vector<std::uint32_t>> per_combination;
  per_combination.reserve(announce_.combinations.size());
  for (std::size_t c = 0; c < announce_.combinations.size(); ++c) {
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
  Phase1Result result;
  result.retained = l_prime_;
  return result;
}

std::vector<double> Coordinator::combination_chi2_p_values(
    const std::vector<std::uint32_t>& members) const {
  std::uint64_t n_case = 0;
  for (std::uint32_t g : members) n_case += summaries_[g]->n_case;
  const std::uint64_t n_ref = reference_.num_individuals();
  std::vector<double> p_values(announce_.num_snps, 1.0);
  for (std::uint32_t l : l_prime_) {
    std::uint64_t case_minor = 0;
    for (std::uint32_t g : members) case_minor += summaries_[g]->case_counts[l];
    const stats::SinglewiseTable table{case_minor, n_case,
                                       reference_counts_[l], n_ref};
    p_values[l] = stats::chi2_p_value(table);
  }
  obs::add_counter(obs_, "coordinator.chi2_values_computed", l_prime_.size());
  return p_values;
}

common::Task<stats::LdMoments> Coordinator::aggregate_pair_async(
    const std::vector<std::uint32_t>& members, std::uint32_t a,
    std::uint32_t b, const AsyncFetchMoments& fetch) {
  const auto key = std::make_pair(a, b);
  auto cached = moments_cache_.find(key);
  if (cached == moments_cache_.end()) {
    PairMoments entry;
    entry.slots.resize(num_gdos_);
    // The leader computes its own moments locally (word-parallel planes).
    entry.slots[leader_->gdo_index()] =
        stats::compute_ld_moments(leader_->planes(), a, b);
    cached = moments_cache_.emplace(key, std::move(entry)).first;
    reference_moments_cache_.emplace(
        key, stats::compute_ld_moments(reference_planes_, a, b));
  }
  PairMoments& entry = cached->second;
  // Decide who to query this round. The first touch of a pair broadcasts to
  // every live member, so a clean run pays one round trip per distinct pair
  // and every later combination reads the pair from the cache. A slot that
  // is still empty for a live member of the combination at hand gets a
  // targeted refetch before the aggregation may fail: otherwise a hole left
  // by an earlier mid-walk death (the broadcast that created the entry lost
  // a different member) would re-throw MissingMomentsError on every later
  // touch and falsely kill a healthy GDO.
  std::vector<std::uint32_t> targets;
  if (!entry.broadcast_done) {
    for (std::uint32_t g = 0; g < num_gdos_; ++g) {
      if (g == leader_->gdo_index()) continue;
      if (dead_gdos_.count(g) > 0) continue;
      if (!entry.slots[g].has_value()) targets.push_back(g);
    }
    entry.broadcast_done = true;
  } else {
    for (std::uint32_t g : members) {
      if (g == leader_->gdo_index()) continue;
      if (dead_gdos_.count(g) > 0) continue;
      if (!entry.slots[g].has_value()) targets.push_back(g);
    }
  }
  if (!targets.empty()) {
    MomentsRequest request;
    request.request_id = next_moments_request_++;
    request.snp_a = a;
    request.snp_b = b;
    // One sequential round trip on the LD critical path.
    obs::add_counter(obs_, "ld.round_trips");
    std::vector<std::optional<stats::LdMoments>> fetched =
        co_await fetch(request, targets);
    fetched.resize(num_gdos_);
    // The fetch may have suspended; re-resolve the cache slot in case the
    // driver touched other pairs meanwhile (map nodes are stable, but stay
    // defensive against a future cache policy).
    PairMoments& slot = moments_cache_.at(key);
    for (std::uint32_t g : targets) {
      if (fetched[g].has_value()) slot.slots[g] = fetched[g];
    }
    obs::add_counter(obs_, "coordinator.ld_member_requests", targets.size());
  }
  const PairMoments& final_entry = moments_cache_.at(key);
  stats::LdMoments total = reference_moments_cache_.at(key);
  for (std::uint32_t g : members) {
    if (!final_entry.slots[g].has_value()) {
      // A missing response from a combination member must never silently
      // skew the aggregate with zero moments: the walk for this combination
      // aborts (run_ld_phase marks the GDO dead and drops the combination).
      throw MissingMomentsError{g};
    }
    total += *final_entry.slots[g];
  }
  co_return total;
}

Result<Phase2Result> Coordinator::run_ld_phase(const FetchMoments& fetch) {
  // Adapt the blocking callback onto the canonical sans-IO phase: nothing in
  // the adapted chain ever suspends, so run_sync drives it to completion on
  // this stack (trusted-module tests and local baselines use this path).
  return common::run_sync(run_ld_phase_async(
      [&fetch](const MomentsRequest& request,
               const std::vector<std::uint32_t>& targets)
          -> common::Task<std::vector<std::optional<stats::LdMoments>>> {
        co_return fetch(request, targets);
      }));
}

common::Task<Result<Phase2Result>> Coordinator::run_ld_phase_async(
    AsyncFetchMoments fetch) {
  const obs::ScopedSpan phase_span(obs::recorder_of(obs_), "phase.ld",
                                   study_span_);
  const std::size_t num_combinations = announce_.combinations.size();
  std::vector<std::vector<std::uint32_t>> per_combination(num_combinations);
  for (std::size_t c = 0; c < num_combinations; ++c) {
    if (!combination_live(c)) continue;
    const obs::ScopedSpan combination_span(
        obs::recorder_of(obs_), "ld.combination." + std::to_string(c),
        phase_span.id());
    obs::add_counter(obs_, "coordinator.ld_combinations");
    const auto& members = announce_.combinations[c];
    try {
      const std::vector<double> p_values = combination_chi2_p_values(members);
      auto pair_p_value = [this, &members, &fetch](
                              std::uint32_t a,
                              std::uint32_t b) -> common::Task<double> {
        co_return stats::ld_p_value(
            co_await aggregate_pair_async(members, a, b, fetch));
      };
      per_combination[c] = co_await stats::greedy_ld_prune_async(
          l_prime_, announce_.config.ld_cutoff, p_values, pair_p_value);
    } catch (const MissingMomentsError& missing) {
      // The GDO went silent mid-walk: declare it dead and keep going with
      // the combinations that do not need its data.
      dead_gdos_.insert(missing.gdo_index);
    }
  }

  // A death discovered mid-phase invalidates every combination containing
  // the dead GDO, including ones whose walk had already finished (their LR
  // planes could never be gathered in phase 3). A walk that threw named one
  // of its own members, so its combination is no longer live either.
  std::vector<std::vector<std::uint32_t>> live_lists;
  for (std::size_t c = 0; c < num_combinations; ++c) {
    if (combination_live(c)) {
      live_lists.push_back(std::move(per_combination[c]));
    }
  }
  if (live_lists.empty()) {
    co_return no_live_combination_error("LD phase");
  }
  l_double_prime_ = intersect_sorted(live_lists);
  outcome_.l_double_prime = l_double_prime_;
  obs::add_counter(obs_, "coordinator.ld_pairs_fetched",
                   moments_cache_.size());

  Phase2Result result;
  result.retained = l_double_prime_;
  result.reference_freq.resize(l_double_prime_.size());
  const std::uint64_t n_ref = reference_.num_individuals();
  for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
    result.reference_freq[i] =
        n_ref == 0 ? 0.0
                   : static_cast<double>(
                         reference_counts_[l_double_prime_[i]]) /
                         static_cast<double>(n_ref);
  }
  // Per-GDO counts over L'' instead of per-combination frequency vectors:
  // O(G·m) on the wire instead of O(C·m). Dead GDOs keep an empty slot so
  // indices stay stable.
  result.case_counts_per_gdo.resize(num_gdos_);
  result.n_case_per_gdo.assign(num_gdos_, 0);
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (dead_gdos_.count(g) > 0 || !summaries_[g].has_value()) continue;
    auto& counts = result.case_counts_per_gdo[g];
    counts.resize(l_double_prime_.size());
    for (std::size_t i = 0; i < l_double_prime_.size(); ++i) {
      counts[i] = summaries_[g]->case_counts[l_double_prime_[i]];
    }
    result.n_case_per_gdo[g] = summaries_[g]->n_case;
  }
  result.dead_gdos.assign(dead_gdos_.begin(), dead_gdos_.end());
  // Fix the phase-3 tile plan over L'' and size the per-GDO plane stores.
  // From here on, phase-2 bodies and member planes travel in L''-column
  // tiles.
  lr_plan_ = genome::TilePlan::over(
      static_cast<std::uint32_t>(l_double_prime_.size()),
      announce_.config.snp_tile_width);
  lr_planes_.assign(num_gdos_, {});
  lr_planes_epc_.clear();
  lr_planes_epc_.resize(num_gdos_);
  lr_plane_tiles_.assign(num_gdos_,
                         std::vector<bool>(lr_plan_.tile_count(), false));
  phase2_full_ = result;
  co_return result;
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
    tile.retained = lr_plan_.slice(phase2_full_.retained, k);
    tile.reference_freq = lr_plan_.slice(phase2_full_.reference_freq, k);
    tile.case_counts_per_gdo.resize(num_gdos_);
    for (std::uint32_t g = 0; g < num_gdos_; ++g) {
      // Dead GDOs keep their (empty) slot in every tile.
      if (!phase2_full_.case_counts_per_gdo[g].empty()) {
        tile.case_counts_per_gdo[g] =
            lr_plan_.slice(phase2_full_.case_counts_per_gdo[g], k);
      }
    }
    tile.n_case_per_gdo = phase2_full_.n_case_per_gdo;
    tile.dead_gdos = phase2_full_.dead_gdos;
    tile.tile_index = k;
    tile.num_tiles = lr_plan_.tile_count();
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

bool Coordinator::lr_tile_complete(std::uint32_t tile) const {
  for (std::uint32_t g = 0; g < num_gdos_; ++g) {
    if (g == leader_->gdo_index()) continue;  // the leader's planes are local
    if (dead_gdos_.count(g) > 0) continue;    // dead GDOs never report
    if (!lr_plane_tiles_[g][tile]) return false;
  }
  return true;
}

Status Coordinator::add_lr_planes(std::uint32_t gdo_index,
                                  const LrPlanes& planes) {
  if (gdo_index >= num_gdos_ || gdo_index == leader_->gdo_index()) {
    return make_error(Errc::unknown_peer, "LR planes from unknown GDO");
  }
  if (lr_plane_tiles_.size() != num_gdos_) {
    return make_error(Errc::state_violation, "LR planes before LD phase");
  }
  const auto reject = [gdo_index](const std::string& why) {
    return make_error(Errc::bad_message,
                      "gdo " + std::to_string(gdo_index) + ": " + why);
  };
  const std::uint32_t tile = planes.tile_index;
  if (tile >= lr_plan_.tile_count()) {
    return reject("LR plane tile index out of range");
  }
  if (lr_plane_tiles_[gdo_index][tile]) return reject("repeated LR plane tile");
  if (planes.width != lr_plan_.width_of(tile)) {
    return reject("LR plane width differs from the tile width");
  }
  if (!summaries_[gdo_index].has_value()) {
    return reject("LR planes from a GDO without a phase-1 summary");
  }
  const SummaryStats& summary = *summaries_[gdo_index];
  const std::size_t words_per_column = (summary.n_case + 63) / 64;
  if (planes.words_per_column != words_per_column ||
      planes.words.size() != planes.width * words_per_column) {
    return reject("LR plane words per column disagree with the phase-1 "
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
      return reject("LR plane padding bits set past n_case");
    }
    const std::uint32_t snp = l_double_prime_[begin + i];
    if (ops.popcount_words(column, words_per_column) !=
        summary.case_counts[snp]) {
      return reject("LR plane popcount disagrees with the phase-1 count of "
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
  lr_plane_tiles_[gdo_index][tile] = true;
  obs::add_counter(obs_, "lr.plane_tiles_received");
  obs::add_counter(obs_, "lr.plane_bytes", planes.words.size() * 8);
  if (tile < lr_tile_spans_.size() && lr_tile_complete(tile)) {
    lr_tile_spans_[tile].reset();
  }
  return Status::success();
}

bool Coordinator::phase3_ready() const noexcept {
  if (lr_plane_tiles_.size() != num_gdos_) return false;
  for (std::uint32_t k = 0; k < lr_plan_.tile_count(); ++k) {
    if (!lr_tile_complete(k)) return false;
  }
  return true;
}

Result<Phase3Result> Coordinator::run_lr_phase(common::ThreadPool* pool) {
  if (!lr_span_.has_value()) {
    // Driven without phase2_tiles() (trusted-module tests): open the phase
    // span here so the selection spans below have their parent.
    lr_span_.emplace(obs::recorder_of(obs_), "phase.lr", study_span_);
  }
  // Tiles a since-dead member never completed close here.
  lr_tile_spans_.clear();
  if (!phase3_ready()) {
    lr_span_.reset();
    return make_error(Errc::state_violation,
                      "LR phase before all planes arrived");
  }
  const std::size_t num_combinations = announce_.combinations.size();
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
  stats::LrSelectionParams params;
  params.false_positive_rate = announce_.config.lr_false_positive_rate;
  params.power_threshold = announce_.config.lr_power_threshold;

  // Several combinations fan out on the pool; a single one gets the pool
  // threaded into its selection instead. Never both: a nested parallel_for
  // from inside a pool worker could starve.
  const bool fan_out = pool != nullptr && live.size() > 1;
  std::vector<std::vector<std::uint32_t>> per_combination(num_combinations);
  std::vector<double> per_combination_power(num_combinations, 0.0);
  auto evaluate = [&](std::size_t c) {
    // Combination spans may open concurrently on pool workers; the recorder
    // is thread-safe and parents are explicit, so nesting stays correct.
    const obs::ScopedSpan combination_span(
        obs::recorder_of(obs_), "lr.combination." + std::to_string(c),
        lr_span_->id());
    obs::add_counter(obs_, "lr.selections");
    const auto& members = announce_.combinations[c];
    std::vector<stats::PlaneBlock> case_blocks;
    for (std::uint32_t g : members) {  // ascending GDO order by construction
      case_blocks.push_back(blocks[g]);
    }
    // The same count-derived frequencies the matrix path weighs with.
    const stats::LrWeights weights =
        stats::lr_weights(phase2_full_.combination_case_freq(members),
                          phase2_full_.reference_freq);
    const stats::LrSelectionResult selection = stats::select_safe_snps(
        case_blocks, reference, weights, params, fan_out ? nullptr : pool);
    for (std::uint32_t column : selection.safe_columns) {
      per_combination[c].push_back(l_double_prime_[column]);
    }
    per_combination_power[c] = selection.final_power;
  };
  if (fan_out) {
    pool->parallel_for(live.size(), [&](std::size_t i) { evaluate(live[i]); });
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
  result.final_power = outcome_.final_power;
  return result;
}

}  // namespace gendpr::core
