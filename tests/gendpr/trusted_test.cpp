#include "gendpr/trusted.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "genome/cohort.hpp"
#include "ld_phase.hpp"
#include "obs/observability.hpp"
#include "stats/association.hpp"

namespace gendpr::core {
namespace {

struct Fixture {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x01}};
  tee::Platform platform{1, authority,
                         crypto::Csprng(std::array<std::uint8_t, 32>{2})};

  genome::Cohort cohort = genome::generate_cohort([] {
    genome::CohortSpec spec;
    spec.num_case = 300;
    spec.num_control = 300;
    spec.num_snps = 120;
    spec.seed = 5;
    return spec;
  }());

  /// Bit planes of all case rows, or of rows [begin, end).
  genome::BitPlanes cases() const { return genome::BitPlanes(cohort.cases); }
  genome::BitPlanes cases(std::size_t begin, std::size_t end) const {
    return genome::BitPlanes(cohort.cases, begin, end);
  }
  genome::BitPlanes reference() const {
    return genome::BitPlanes(cohort.controls);
  }

  /// The announce members receive for a study over this cohort.
  StudyAnnounce make_announce() const {
    return {static_cast<std::uint32_t>(cohort.cases.num_snps()), 0};
  }
};

TEST(IntersectSortedTest, BasicCases) {
  EXPECT_TRUE(intersect_sorted({}).empty());
  EXPECT_EQ(intersect_sorted({{1, 2, 3}}),
            (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(intersect_sorted({{1, 2, 3}, {2, 3, 4}}),
            (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(intersect_sorted({{1, 2}, {3, 4}}), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(intersect_sorted({{1, 2, 3}, {2, 3}, {3}}),
            (std::vector<std::uint32_t>{3}));
}

TEST(BuildCombinationsTest, NonePolicyIsAllGdos) {
  const auto combinations =
      Coordinator::build_combinations(4, CollusionPolicy::none());
  ASSERT_EQ(combinations.size(), 1u);
  EXPECT_EQ(combinations[0], (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(BuildCombinationsTest, FixedFMatchesBinomial) {
  // C(5, 5-2) = 10 combinations of 3 GDOs.
  const auto combinations =
      Coordinator::build_combinations(5, CollusionPolicy::fixed(2));
  EXPECT_EQ(combinations.size(), 10u);
  for (const auto& members : combinations) {
    EXPECT_EQ(members.size(), 3u);
  }
}

TEST(BuildCombinationsTest, FixedFMaxIsSingletons) {
  const auto combinations =
      Coordinator::build_combinations(4, CollusionPolicy::fixed(3));
  EXPECT_EQ(combinations.size(), 4u);
  for (const auto& members : combinations) EXPECT_EQ(members.size(), 1u);
}

TEST(BuildCombinationsTest, ConservativeSumsAllF) {
  // Sum of C(4, 4-f) for f=1..3: 4 + 6 + 4 = 14.
  const auto combinations =
      Coordinator::build_combinations(4, CollusionPolicy::conservative());
  EXPECT_EQ(combinations.size(), 14u);
}

TEST(BuildCombinationsTest, FClampedToGMinus1) {
  const auto combinations =
      Coordinator::build_combinations(3, CollusionPolicy::fixed(99));
  EXPECT_EQ(combinations.size(), 3u);  // C(3,1)
}

TEST(GdoEnclaveTest, ProvisionAccountsEpc) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  // The bit planes are the enclave's one genotype layout, and its one
  // dataset charge (DESIGN.md §2.1).
  EXPECT_EQ(f.platform.epc().in_use(), f.cases().storage_bytes());
}

TEST(GdoEnclaveTest, ProvisionRejectedOverEpcLimit) {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x03}};
  tee::Platform tiny(1, authority,
                     crypto::Csprng(std::array<std::uint8_t, 32>{4}),
                     /*epc_limit=*/16);
  Fixture f;
  GdoEnclave enclave(tiny, 0);
  const auto status = enclave.provision_dataset(f.cases());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::capacity_exceeded);
}

TEST(GdoEnclaveTest, SummaryStatsMatchDataset) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  const SummaryStats stats = enclave.make_summary_stats();
  EXPECT_EQ(stats.n_case, f.cohort.cases.num_individuals());
  EXPECT_EQ(stats.case_counts, f.cohort.cases.allele_counts());
}

TEST(GdoEnclaveTest, AnnounceSnpMismatchRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  StudyAnnounce announce = f.make_announce();
  announce.num_snps = 7;  // wrong
  EXPECT_FALSE(enclave.on_study_announce(announce).ok());
}

TEST(GdoEnclaveTest, HandlersEnforcePhaseOrder) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  EXPECT_FALSE(enclave.on_phase1(Phase1Result{}).ok());
  EXPECT_FALSE(enclave.on_moments_request(MomentsRequest{}).ok());
  EXPECT_FALSE(enclave.on_phase3(Phase3Result{}).ok());
}

TEST(GdoEnclaveTest, MomentsRequestOutOfRangeRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 0);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  ASSERT_TRUE(enclave.on_study_announce(f.make_announce()).ok());
  MomentsRequest request{0, 0, 100000};
  EXPECT_FALSE(enclave.on_moments_request(request).ok());
  // In range but outside L': the leader may ask only for pairs the study
  // retained.
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{0, 2, 5}}).ok());
  EXPECT_EQ(enclave.on_moments_request(MomentsRequest{1, 0, 1}).error().code,
            common::Errc::bad_message);
  EXPECT_EQ(enclave.on_moments_request(MomentsRequest{2, 3, 5}).error().code,
            common::Errc::bad_message);
  const auto answered = enclave.on_moments_request(MomentsRequest{3, 2, 5});
  ASSERT_TRUE(answered.ok());
  EXPECT_EQ(answered.value().co_count, enclave.planes().pair_count(2, 5));
}

TEST(GdoEnclaveTest, Phase2SnpOutsideLPrimeRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  ASSERT_TRUE(enclave.on_study_announce(f.make_announce()).ok());
  EXPECT_EQ(enclave.on_phase1(Phase1Result{{0, 2, 1}}).error().code,
            common::Errc::bad_message);
  EXPECT_EQ(enclave.on_phase1(Phase1Result{{0, 2, 2}}).error().code,
            common::Errc::bad_message);
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{0, 1, 2, 5}}).ok());
  const auto answer = [&enclave](std::vector<std::uint32_t> retained,
                                 std::uint32_t tile_index) {
    return enclave.on_phase2(Phase2Result{std::move(retained), tile_index, 2});
  };
  const auto expect_bad = [](const common::Result<LrPlanes>& reply) {
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.error().code, common::Errc::bad_message);
  };
  expect_bad(answer({3}, 0));     // in range, not in L'
  expect_bad(answer({5, 1}, 0));  // descending within a tile
  expect_bad(answer({1, 1}, 0));  // repeated within a tile
  ASSERT_TRUE(answer({1, 2}, 0).ok());
  expect_bad(answer({2}, 1));  // descending across the tile stream
  // The leader sends each tile once: a repeated tile 0 is refused like an
  // out-of-order one, never taken as a restart.
  const auto repeated = answer({1}, 0);
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.error().code, common::Errc::state_violation);
  const auto last = answer({5}, 1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().width, 1u);
}

TEST(GdoEnclaveTest, Phase2ReturnsTileIndicatorPlanes) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  ASSERT_TRUE(enclave.on_study_announce(f.make_announce()).ok());
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{0, 1, 2, 5}}).ok());
  const auto planes = enclave.on_phase2(Phase2Result{{1, 5}, 0, 2});
  ASSERT_TRUE(planes.ok());
  // One message for every combination: the tile's planes, verbatim.
  const std::size_t words = enclave.planes().words_per_plane();
  EXPECT_EQ(planes.value().tile_index, 0u);
  EXPECT_EQ(planes.value().width, 2u);
  EXPECT_EQ(planes.value().words_per_column, words);
  EXPECT_EQ(words, (f.cohort.cases.num_individuals() + 63) / 64);
  ASSERT_EQ(planes.value().words.size(), 2 * words);
  EXPECT_TRUE(std::equal(planes.value().words.begin(),
                         planes.value().words.begin() + words,
                         enclave.planes().plane(1)));
  EXPECT_TRUE(std::equal(planes.value().words.begin() + words,
                         planes.value().words.end(),
                         enclave.planes().plane(5)));
}

TEST(GdoEnclaveTest, Phase3SafeSetNotAscendingRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  ASSERT_TRUE(enclave.on_study_announce(f.make_announce()).ok());
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{0, 1, 2, 5}}).ok());
  ASSERT_TRUE(enclave.on_phase2(Phase2Result{{1, 2, 5}, 0, 1}).ok());
  for (const std::vector<std::uint32_t>& safe :
       {std::vector<std::uint32_t>{5, 1}, std::vector<std::uint32_t>{2, 2}}) {
    const common::Status status = enclave.on_phase3(Phase3Result{safe});
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, common::Errc::bad_message);
  }
  EXPECT_FALSE(enclave.study_complete());
  EXPECT_TRUE(enclave.safe_snps().empty());
  ASSERT_TRUE(enclave.on_phase3(Phase3Result{{1, 5}}).ok());
  EXPECT_EQ(enclave.safe_snps(), (std::vector<std::uint32_t>{1, 5}));
  EXPECT_TRUE(enclave.study_complete());
}

TEST(GdoEnclaveTest, Phase3SafeSnpOutsideLDoublePrimeRejected) {
  Fixture f;
  GdoEnclave enclave(f.platform, 1);
  ASSERT_TRUE(enclave.provision_dataset(f.cases()).ok());
  ASSERT_TRUE(enclave.on_study_announce(f.make_announce()).ok());
  ASSERT_TRUE(enclave.on_phase1(Phase1Result{{0, 1, 2, 5}}).ok());
  ASSERT_TRUE(enclave.on_phase2(Phase2Result{{1, 5}, 0, 1}).ok());
  // 2 is in L' but not in L''; 3 is in neither.
  for (std::uint32_t outside : {2u, 3u}) {
    const common::Status status =
        enclave.on_phase3(Phase3Result{{1, outside}});
    ASSERT_FALSE(status.ok()) << outside;
    EXPECT_EQ(status.error().code, common::Errc::bad_message);
  }
  EXPECT_FALSE(enclave.study_complete());
  // Nothing of L'' assembled yet: only the empty safe set is acceptable.
  GdoEnclave fresh(f.platform, 2);
  ASSERT_TRUE(fresh.provision_dataset(f.cases()).ok());
  ASSERT_TRUE(fresh.on_study_announce(f.make_announce()).ok());
  ASSERT_TRUE(fresh.on_phase1(Phase1Result{{0, 1}}).ok());
  EXPECT_EQ(fresh.on_phase3(Phase3Result{{0}}).error().code,
            common::Errc::bad_message);
  EXPECT_TRUE(fresh.on_phase3(Phase3Result{}).ok());
}

using Stream = Coordinator::Stream;

/// Expects `status` to be a bad_message refusal naming GDO `gdo`, with `why`
/// in the reason.
void expect_refused(const common::Status& status, const std::string& why,
                    std::uint32_t gdo = 1) {
  ASSERT_FALSE(status.ok()) << why;
  EXPECT_EQ(status.error().code, common::Errc::bad_message);
  EXPECT_NE(status.error().message.find("gdo " + std::to_string(gdo)),
            std::string::npos)
      << status.error().message;
  EXPECT_NE(status.error().message.find(why), std::string::npos)
      << status.error().message;
}

TEST(CoordinatorTest, RejectsBogusSummaries) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
  Coordinator coordinator(leader, f.reference(), 2, StudyConfig{},
                          CollusionPolicy::none());
  SummaryStats bogus;
  bogus.case_counts = {1, 2};  // wrong length
  bogus.n_case = 10;
  expect_refused(coordinator.add_summary(1, bogus), "wrong size");

  SummaryStats inflated;
  inflated.case_counts.assign(f.cohort.cases.num_snps(), 100);
  inflated.n_case = 10;  // counts exceed population
  expect_refused(coordinator.add_summary(1, inflated), "exceeds population");

  SummaryStats ok;
  ok.case_counts.assign(f.cohort.cases.num_snps(), 1);
  ok.n_case = 10;
  EXPECT_EQ(coordinator.add_summary(7, ok).error().code,
            common::Errc::unknown_peer);
  EXPECT_EQ(coordinator.add_summary(0, ok).error().code,
            common::Errc::unknown_peer);  // the leader's summary is local
  EXPECT_TRUE(coordinator.add_summary(1, ok).ok());
}

TEST(CoordinatorTest, SummaryTilesAdmittedOnceInStreamOrder) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  GdoEnclave member(f.platform, 1);
  ASSERT_TRUE(leader.provision_dataset(f.cases(0, 130)).ok());
  ASSERT_TRUE(member.provision_dataset(f.cases(130, 300)).ok());
  StudyConfig config;
  config.snp_tile_width = 8;
  Coordinator coordinator(leader, f.reference(), 2, config,
                          CollusionPolicy::none());
  const genome::TilePlan& plan = coordinator.maf_plan();
  ASSERT_GT(plan.tile_count(), 2u);
  const auto tile = [&](std::uint32_t k) {
    return member.make_summary_tile(plan.begin(k), plan.end(k), k);
  };
  expect_refused(coordinator.add_summary(1, tile(1)), "out of order");
  ASSERT_TRUE(coordinator.add_summary(1, tile(0)).ok());
  expect_refused(coordinator.add_summary(1, tile(0)), "repeated");
  SummaryStats beyond = tile(1);
  beyond.tile_index = plan.tile_count();
  expect_refused(coordinator.add_summary(1, beyond), "out of range");
  // Refused tiles are not counted: the member still owes the rest.
  EXPECT_EQ(coordinator.members_owing(Stream::summaries),
            std::set<std::uint32_t>{1});
  for (std::uint32_t k = 1; k < plan.tile_count(); ++k) {
    ASSERT_TRUE(coordinator.add_summary(1, tile(k)).ok());
  }
  EXPECT_TRUE(coordinator.members_owing(Stream::summaries).empty());
}

TEST(CoordinatorTest, MafPhaseRequiresAllSummaries) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
  Coordinator coordinator(leader, f.reference(), 3, StudyConfig{},
                          CollusionPolicy::none());
  EXPECT_EQ(coordinator.members_owing(Stream::summaries),
            (std::set<std::uint32_t>{1, 2}));
  EXPECT_FALSE(coordinator.run_maf_phase().ok());
}

TEST(CoordinatorTest, SingleGdoPipelineRunsEndToEnd) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
  Coordinator coordinator(leader, f.reference(), 1, StudyConfig{},
                          CollusionPolicy::none());
  ASSERT_TRUE(coordinator.members_owing(Stream::summaries).empty());
  const auto phase1 = coordinator.run_maf_phase();
  ASSERT_TRUE(phase1.ok());
  EXPECT_FALSE(phase1.value().retained.empty());

  auto fetch = [](const MomentsRequest&, const std::vector<std::uint32_t>&) {
    return MemberCounts{};
  };
  const auto phase2 = run_ld_phase(coordinator, {}, fetch);
  ASSERT_TRUE(phase2.ok());
  EXPECT_LE(phase2.value().retained.size(), phase1.value().retained.size());

  ASSERT_TRUE(coordinator.members_owing(Stream::lr_planes).empty());
  const auto phase3 = coordinator.run_lr_phase();
  ASSERT_TRUE(phase3.ok());
  EXPECT_LE(phase3.value().safe.size(), phase2.value().retained.size());
  EXPECT_LE(coordinator.outcome().final_power, 0.9);
}

TEST(CoordinatorTest, LrMatrixValidation) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
  Coordinator coordinator(leader, f.reference(), 2, StudyConfig{},
                          CollusionPolicy::none());
  SummaryStats member_stats;
  member_stats.case_counts.assign(f.cohort.cases.num_snps(), 5);
  member_stats.n_case = 50;
  ASSERT_TRUE(coordinator.add_summary(1, member_stats).ok());
  ASSERT_TRUE(coordinator.run_maf_phase().ok());
  auto fetch = [&](const MomentsRequest&, const std::vector<std::uint32_t>&) {
    MemberCounts per_gdo(2);
    per_gdo[1] = 1;
    return per_gdo;
  };
  ASSERT_TRUE(
      run_ld_phase(coordinator, {{1, uniform_windows(coordinator, 1)}}, fetch)
          .ok());

  const LrPlanes planes{0, 1, 1, {0}};
  EXPECT_EQ(coordinator.add_lr_planes(7, planes).error().code,
            common::Errc::unknown_peer);
  EXPECT_EQ(coordinator.add_lr_planes(0, planes).error().code,
            common::Errc::unknown_peer);  // the leader's planes are local
}

TEST(CoordinatorTest, LrPlanesBeforeLdPhaseRejected) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
  Coordinator coordinator(leader, f.reference(), 2, StudyConfig{},
                          CollusionPolicy::none());
  EXPECT_EQ(coordinator.add_lr_planes(1, LrPlanes{}).error().code,
            common::Errc::state_violation);
}

/// A leader and one honest member run phases 1-2 for real (tile width 8),
/// so the member's planes for each phase-2 tile agree with its phase-1
/// counts. Shared by the plane tamper tests below.
struct PlaneGather {
  Fixture f;
  GdoEnclave leader{f.platform, 0};
  GdoEnclave member{f.platform, 1};
  std::optional<Coordinator> coordinator;
  std::vector<LrPlanes> replies;

  PlaneGather() {
    EXPECT_TRUE(leader.provision_dataset(f.cases(0, 130)).ok());
    // 170 rows: three words per column, the last one padded.
    EXPECT_TRUE(member.provision_dataset(f.cases(130, 300)).ok());
    StudyConfig config;
    config.snp_tile_width = 8;
    coordinator.emplace(leader, f.reference(), 2, config,
                        CollusionPolicy::none());
    EXPECT_TRUE(member.on_study_announce(coordinator->announce()).ok());
    const genome::TilePlan& plan = coordinator->maf_plan();
    for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
      EXPECT_TRUE(coordinator
                      ->add_summary(1, member.make_summary_tile(
                                           plan.begin(k), plan.end(k), k))
                      .ok());
    }
    const auto phase1 = coordinator->run_maf_phase();
    EXPECT_TRUE(phase1.ok());
    EXPECT_TRUE(member.on_phase1(phase1.value()).ok());
    auto fetch = [this](const MomentsRequest& request,
                        const std::vector<std::uint32_t>&) {
      MemberCounts per_gdo(2);
      per_gdo[1] = member.on_moments_request(request).value().co_count;
      return per_gdo;
    };
    EXPECT_TRUE(
        run_ld_phase(*coordinator, {{1, member_windows(member)}}, fetch).ok());
    for (const Phase2Result& tile : coordinator->phase2_tiles()) {
      auto reply = member.on_phase2(tile);
      EXPECT_TRUE(reply.ok());
      replies.push_back(std::move(reply).take());
    }
  }

  void expect_rejected(const LrPlanes& planes, const std::string& why) {
    expect_refused(coordinator->add_lr_planes(1, planes), why);
  }
};

TEST(CoordinatorTest, LrPlanesFromHonestMemberCompletePhase3) {
  PlaneGather gather;
  ASSERT_GT(gather.replies.size(), 1u);
  EXPECT_EQ(gather.coordinator->members_owing(Stream::lr_planes),
            std::set<std::uint32_t>{1});
  for (const LrPlanes& planes : gather.replies) {
    ASSERT_TRUE(gather.coordinator->add_lr_planes(1, planes).ok());
  }
  EXPECT_TRUE(gather.coordinator->members_owing(Stream::lr_planes).empty());
  EXPECT_TRUE(gather.coordinator->run_lr_phase().ok());
}

TEST(CoordinatorTest, LrPhaseWeighsPooledCountRatios) {
  // The leader derives each combination's weights itself: case frequencies
  // are the members' summed phase-1 counts over their summed populations,
  // reference frequencies the panel's counts over its size. Selecting with
  // those weights on the same planes must reproduce its outcome exactly.
  PlaneGather gather;
  for (const LrPlanes& planes : gather.replies) {
    ASSERT_TRUE(gather.coordinator->add_lr_planes(1, planes).ok());
  }
  ASSERT_TRUE(gather.coordinator->run_lr_phase().ok());
  const SelectionOutcome& outcome = gather.coordinator->outcome();
  const std::vector<std::uint32_t>& snps = outcome.l_double_prime;
  ASSERT_FALSE(snps.empty());

  const genome::BitPlanes reference = gather.f.reference();
  const double n_case = static_cast<double>(
      gather.leader.planes().num_individuals() +
      gather.member.planes().num_individuals());
  const double n_ref = static_cast<double>(reference.num_individuals());
  std::vector<double> case_freq;
  std::vector<double> reference_freq;
  for (std::uint32_t snp : snps) {
    case_freq.push_back(static_cast<double>(
                            gather.leader.planes().allele_count(snp) +
                            gather.member.planes().allele_count(snp)) /
                        n_case);
    reference_freq.push_back(
        static_cast<double>(reference.allele_count(snp)) / n_ref);
  }
  const stats::LrSelectionResult expected = stats::select_safe_snps(
      {stats::plane_block(gather.leader.planes(), snps),
       stats::plane_block(gather.member.planes(), snps)},
      stats::plane_block(reference, snps),
      stats::lr_weights(case_freq, reference_freq), stats::LrSelectionParams{});
  std::vector<std::uint32_t> expected_safe;
  for (std::uint32_t column : expected.safe_columns) {
    expected_safe.push_back(snps[column]);
  }
  EXPECT_EQ(outcome.l_safe, expected_safe);
  EXPECT_EQ(outcome.final_power, expected.final_power);
}

TEST(CoordinatorTest, LrPlanesFlippedBitRejected) {
  PlaneGather gather;
  LrPlanes planes = gather.replies[0];
  planes.words[0] ^= 1;  // individual 0's bit in column 0
  gather.expect_rejected(planes, "popcount");
}

TEST(CoordinatorTest, LrPlanesPaddingBitRejected) {
  PlaneGather gather;
  LrPlanes planes = gather.replies[0];
  // 170 rows: bits 42..63 of each column's third word are padding.
  planes.words[planes.words_per_column - 1] |= std::uint64_t{1} << 63;
  gather.expect_rejected(planes, "padding");
}

TEST(CoordinatorTest, LrPlanesWrongShapeRejected) {
  PlaneGather gather;
  LrPlanes wide = gather.replies[0];
  wide.width += 1;
  wide.words.resize(wide.words.size() + wide.words_per_column, 0);
  gather.expect_rejected(wide, "width");

  LrPlanes narrow_words = gather.replies[0];
  narrow_words.words_per_column -= 1;
  narrow_words.words.resize(narrow_words.width *
                            narrow_words.words_per_column);
  gather.expect_rejected(narrow_words, "words per column");

  LrPlanes out_of_range = gather.replies[0];
  out_of_range.tile_index =
      static_cast<std::uint32_t>(gather.replies.size());
  gather.expect_rejected(out_of_range, "out of range");
}

TEST(CoordinatorTest, LrPlanesRepeatedTileRejected) {
  PlaneGather gather;
  ASSERT_TRUE(gather.coordinator->add_lr_planes(1, gather.replies[0]).ok());
  gather.expect_rejected(gather.replies[0], "repeated");
}

TEST(CoordinatorTest, LrPlanesOutOfOrderTileRejected) {
  PlaneGather gather;
  ASSERT_GT(gather.replies.size(), 1u);
  gather.expect_rejected(gather.replies[1], "out of order");
  // The refused tile does not count: tile 0 is still the one expected.
  EXPECT_TRUE(gather.coordinator->add_lr_planes(1, gather.replies[0]).ok());
}

/// A leader and one honest member through phase 1 (tile width 8), plus the
/// member's honest LD window for every L' tile. Shared by the window tests
/// below.
struct WindowGather {
  Fixture f;
  GdoEnclave leader{f.platform, 0};
  GdoEnclave member{f.platform, 1};
  std::optional<Coordinator> coordinator;
  std::vector<LdWindow> windows;
  /// Pairs the fetch was asked for (empty when no fetch happened).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fetched;

  WindowGather() {
    EXPECT_TRUE(leader.provision_dataset(f.cases(0, 130)).ok());
    EXPECT_TRUE(member.provision_dataset(f.cases(130, 300)).ok());
    StudyConfig config;
    config.snp_tile_width = 8;
    coordinator.emplace(leader, f.reference(), 2, config,
                        CollusionPolicy::none());
    EXPECT_TRUE(member.on_study_announce(coordinator->announce()).ok());
    const genome::TilePlan& maf_plan = coordinator->maf_plan();
    for (std::uint32_t k = 0; k < maf_plan.tile_count(); ++k) {
      EXPECT_TRUE(coordinator
                      ->add_summary(1, member.make_summary_tile(
                                           maf_plan.begin(k), maf_plan.end(k),
                                           k))
                      .ok());
    }
    const auto phase1 = coordinator->run_maf_phase();
    EXPECT_TRUE(phase1.ok());
    EXPECT_TRUE(member.on_phase1(phase1.value()).ok());
    windows = member_windows(member);
    EXPECT_EQ(windows.size(), coordinator->ld_plan().tile_count());
  }

  /// The member answering every fetched pair honestly.
  BlockingFetch honest_fetch() {
    return [this](const MomentsRequest& request,
                  const std::vector<std::uint32_t>&) {
      fetched.emplace_back(request.snp_a, request.snp_b);
      MemberCounts per_gdo(2);
      per_gdo[1] = member.on_moments_request(request).value().co_count;
      return per_gdo;
    };
  }

  void expect_rejected(const LdWindow& window, const std::string& why) {
    expect_refused(coordinator->add_ld_window(1, window), why);
  }
};

TEST(CoordinatorTest, LdWindowsServeInWindowPairsWithTheSameSelection) {
  WindowGather windowed;
  ASSERT_GT(windowed.windows.size(), 1u);
  const auto with_windows = run_ld_phase(
      *windowed.coordinator, {{1, windowed.windows}}, windowed.honest_fetch());
  ASSERT_TRUE(with_windows.ok()) << with_windows.error().to_string();
  EXPECT_TRUE(windowed.coordinator->members_owing(Stream::ld_windows).empty());

  // The same walk over the pooled case planes and the reference panel, as
  // a centralized holder of every genome would run it.
  const genome::BitPlanes cases = windowed.f.cases();
  const genome::BitPlanes reference = windowed.f.reference();
  std::vector<double> association_p(cases.num_snps());
  for (std::uint32_t l = 0; l < cases.num_snps(); ++l) {
    association_p[l] = stats::chi2_p_value(stats::SinglewiseTable{
        cases.allele_count(l), cases.num_individuals(),
        reference.allele_count(l), reference.num_individuals()});
  }
  std::size_t pairs = 0;
  const auto& l_prime = windowed.coordinator->outcome().l_prime;
  const std::vector<std::uint32_t> expected = stats::greedy_ld_prune(
      l_prime, StudyConfig{}.ld_cutoff, association_p,
      [&](std::uint32_t a, std::uint32_t b) {
        ++pairs;
        return stats::ld_p_value(stats::compute_ld_moments(cases, a, b) +
                                 stats::compute_ld_moments(reference, a, b));
      });
  EXPECT_EQ(with_windows.value().retained, expected);
  EXPECT_EQ(windowed.coordinator->ld_pairs_fetched(), pairs);
  // The windows served some pairs; only pairs further apart than the
  // window were fetched.
  EXPECT_LT(windowed.fetched.size(), pairs);
  for (const auto& [a, b] : windowed.fetched) {
    const auto rank = [&](std::uint32_t snp) {
      return std::lower_bound(l_prime.begin(), l_prime.end(), snp) -
             l_prime.begin();
    };
    EXPECT_GT(rank(b) - rank(a), static_cast<std::ptrdiff_t>(kLdWindow));
  }
}

TEST(CoordinatorTest, LdPhaseRequiresAllWindows) {
  WindowGather gather;
  ASSERT_GT(gather.windows.size(), 1u);
  const auto result = run_ld_phase(*gather.coordinator,
                                   {{1, {gather.windows[0]}}},
                                   gather.honest_fetch());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::state_violation);
  EXPECT_EQ(gather.coordinator->members_owing(Stream::ld_windows),
            std::set<std::uint32_t>{1});
}

TEST(CoordinatorTest, LdWindowForgedCountRejected) {
  WindowGather gather;
  LdWindow forged = gather.windows[0];
  // Rank 1's count with rank 0 exceeds either SNP's phase-1 count.
  forged.counts[kLdWindow] = 1000000;
  gather.expect_rejected(forged, "disagrees with the phase-1 counts");
}

TEST(CoordinatorTest, LdWindowShortRejected) {
  WindowGather gather;
  LdWindow short_window = gather.windows[0];
  short_window.counts.pop_back();
  gather.expect_rejected(short_window, "size");
}

TEST(CoordinatorTest, LdWindowPaddingRejected) {
  WindowGather gather;
  LdWindow padded = gather.windows[0];
  padded.counts[0] = 1;  // rank 0 has no partner one rank back
  gather.expect_rejected(padded, "padding");
}

TEST(CoordinatorTest, LdWindowRepeatedTileRejected) {
  WindowGather gather;
  ASSERT_TRUE(gather.coordinator->add_ld_window(1, gather.windows[0]).ok());
  gather.expect_rejected(gather.windows[0], "repeated");
}

TEST(CoordinatorTest, LdWindowOutOfOrderOrRangeRejected) {
  WindowGather gather;
  gather.expect_rejected(gather.windows[1], "out of order");
  LdWindow beyond = gather.windows[0];
  beyond.tile_index = static_cast<std::uint32_t>(gather.windows.size());
  gather.expect_rejected(beyond, "out of range");
}

TEST(CoordinatorTest, LdWindowBeforePhase1ResultRejected) {
  Fixture f;
  GdoEnclave leader(f.platform, 0);
  ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
  Coordinator coordinator(leader, f.reference(), 2, StudyConfig{},
                          CollusionPolicy::none());
  const common::Status status = coordinator.add_ld_window(1, LdWindow{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, common::Errc::bad_message);
  EXPECT_NE(status.error().message.find("gdo 1"), std::string::npos);
  EXPECT_NE(status.error().message.find("before the phase-1 result"),
            std::string::npos)
      << status.error().message;
}

TEST(CoordinatorTest, LdWindowFromDeadGdoDropped) {
  WindowGather gather;
  obs::Observability observability;
  gather.coordinator->set_observability(&observability);
  ASSERT_TRUE(gather.coordinator->mark_gdo_dead(1).ok());
  EXPECT_TRUE(gather.coordinator->add_ld_window(1, gather.windows[0]).ok());
  EXPECT_EQ(observability.metrics.counter("ld.window_tiles"), 0u);
  // A dead GDO owes nothing.
  EXPECT_TRUE(gather.coordinator->members_owing(Stream::ld_windows).empty());
}

/// ld_cutoff 1: every pair is dependent, so a walk's anchor holds past the
/// LD window and the leader must fetch pairs beyond it.
StudyConfig every_pair_dependent() {
  StudyConfig config;
  config.ld_cutoff = 1.0;
  return config;
}

TEST(CoordinatorTest, FetchedCountOutsidePhase1BoundsRejected) {
  // Member summary: every SNP carried by 30 of 50 cases, so a pair's
  // co-occurrence count must lie in [30 + 30 - 50, 30] = [10, 30].
  for (const std::uint32_t co : {9u, 31u}) {
    Fixture f;
    GdoEnclave leader(f.platform, 0);
    ASSERT_TRUE(leader.provision_dataset(f.cases()).ok());
    Coordinator coordinator(leader, f.reference(), 2, every_pair_dependent(),
                            CollusionPolicy::none());
    SummaryStats member_stats;
    member_stats.case_counts.assign(f.cohort.cases.num_snps(), 30);
    member_stats.n_case = 50;
    ASSERT_TRUE(coordinator.add_summary(1, member_stats).ok());
    ASSERT_TRUE(coordinator.run_maf_phase().ok());
    std::size_t fetches = 0;
    auto fetch = [co, &fetches](const MomentsRequest&,
                                const std::vector<std::uint32_t>&) {
      ++fetches;
      MemberCounts per_gdo(2);
      per_gdo[1] = co;
      return per_gdo;
    };
    const auto result = run_ld_phase(
        coordinator, {{1, uniform_windows(coordinator, 20)}}, fetch);
    EXPECT_EQ(fetches, 1u);
    ASSERT_FALSE(result.ok()) << "co-count " << co << " accepted";
    EXPECT_EQ(result.error().code, common::Errc::bad_message);
    EXPECT_NE(result.error().message.find("gdo 1"), std::string::npos)
        << result.error().message;
    EXPECT_TRUE(coordinator.dead_gdos().empty());
  }
}

/// Three-GDO coordinator with identical member summaries and every pair
/// dependent: every combination ranks SNPs identically, so the greedy walks
/// of {0,1}, {0,2} and {1,2} need the same pairs beyond the LD window. Both
/// members' windows are in.
struct FarPairFixture {
  Fixture f;
  GdoEnclave leader{f.platform, 0};
  std::optional<Coordinator> coordinator;

  FarPairFixture() {
    EXPECT_TRUE(leader.provision_dataset(f.cases()).ok());
    coordinator.emplace(leader, f.reference(), 3, every_pair_dependent(),
                        CollusionPolicy::fixed(1));
    SummaryStats member_stats;
    member_stats.case_counts.assign(f.cohort.cases.num_snps(), 5);
    member_stats.n_case = 400;
    EXPECT_TRUE(coordinator->add_summary(1, member_stats).ok());
    EXPECT_TRUE(coordinator->add_summary(2, member_stats).ok());
    EXPECT_TRUE(coordinator->run_maf_phase().ok());
    for (const LdWindow& window : uniform_windows(*coordinator, 1)) {
      EXPECT_TRUE(coordinator->add_ld_window(1, window).ok());
      EXPECT_TRUE(coordinator->add_ld_window(2, window).ok());
    }
  }

  /// Answers every request with a count of 1 from each member it names.
  static MemberCounts answer_all(const MomentsRequest&,
                                 const std::vector<std::uint32_t>& targets) {
    MemberCounts per_gdo(3);
    for (std::uint32_t g : targets) per_gdo[g] = 1;
    return per_gdo;
  }

  /// Walks up to the first pair beyond the window and returns the request
  /// the walk stopped on.
  MomentsRequest first_request() {
    auto opened = coordinator->advance_ld_walks();
    EXPECT_TRUE(opened.ok());
    EXPECT_TRUE(opened.ok() && opened.value().has_value());
    return opened.ok() && opened.value().has_value() ? *opened.value()
                                                     : MomentsRequest{};
  }
};

TEST(CoordinatorTest, WalkWaitsForEveryAddressedLiveMember) {
  // A pair beyond the window opens one request to every live member. The
  // walk does not pass the pair while a live member still owes its answer,
  // and a member that answers last is not written off: once it answered,
  // every combination stays live.
  FarPairFixture fp;
  Coordinator& coordinator = *fp.coordinator;
  const MomentsRequest request = fp.first_request();
  EXPECT_EQ(coordinator.members_owing_moments(),
            (std::set<std::uint32_t>{1, 2}));
  ASSERT_TRUE(coordinator.add_moments(1, {request.request_id, 1}).ok());
  const std::size_t pairs = coordinator.ld_pairs_fetched();
  const auto stalled = coordinator.advance_ld_walks();
  ASSERT_TRUE(stalled.ok());
  EXPECT_FALSE(stalled.value().has_value());
  EXPECT_EQ(coordinator.members_owing_moments(), std::set<std::uint32_t>{2});
  EXPECT_EQ(coordinator.ld_pairs_fetched(), pairs);
  EXPECT_EQ(coordinator.run_ld_phase().error().code,
            common::Errc::state_violation);

  ASSERT_TRUE(coordinator.add_moments(2, {request.request_id, 1}).ok());
  EXPECT_TRUE(coordinator.members_owing_moments().empty());
  ASSERT_TRUE(run_ld_phase(coordinator, {}, FarPairFixture::answer_all).ok());
  EXPECT_GT(coordinator.ld_pairs_fetched(), pairs);
  EXPECT_TRUE(coordinator.dead_gdos().empty());
  EXPECT_EQ(coordinator.live_combination_count(),
            coordinator.combinations().size());
}

TEST(CoordinatorTest, MomentsWithoutOpenRequestRefused) {
  FarPairFixture fp;
  // Before the walk opened a request, and after the walk finished.
  expect_refused(fp.coordinator->add_moments(1, {0, 1}),
                 "without an open request");
  ASSERT_TRUE(
      run_ld_phase(*fp.coordinator, {}, FarPairFixture::answer_all).ok());
  expect_refused(fp.coordinator->add_moments(1, {0, 1}),
                 "without an open request");
}

TEST(CoordinatorTest, MomentsForAnotherRequestRefused) {
  FarPairFixture fp;
  const MomentsRequest request = fp.first_request();
  expect_refused(fp.coordinator->add_moments(1, {request.request_id + 1, 1}),
                 "another request");
  EXPECT_EQ(fp.coordinator->members_owing_moments(),
            (std::set<std::uint32_t>{1, 2}));
}

TEST(CoordinatorTest, MomentsFromUnaddressedGdoRefused) {
  FarPairFixture fp;
  // GDO 2 died before the request opened, so it addressed GDO 1 alone; the
  // leader's own data is local and never addressed.
  ASSERT_TRUE(fp.coordinator->mark_gdo_dead(2).ok());
  const MomentsRequest request = fp.first_request();
  EXPECT_EQ(fp.coordinator->members_owing_moments(),
            std::set<std::uint32_t>{1});
  expect_refused(fp.coordinator->add_moments(2, {request.request_id, 1}),
                 "did not address", 2);
  expect_refused(fp.coordinator->add_moments(0, {request.request_id, 1}),
                 "did not address", 0);
  EXPECT_EQ(fp.coordinator->members_owing_moments(),
            std::set<std::uint32_t>{1});
}

TEST(CoordinatorTest, RepeatedMomentsRefused) {
  FarPairFixture fp;
  const MomentsRequest request = fp.first_request();
  ASSERT_TRUE(fp.coordinator->add_moments(1, {request.request_id, 1}).ok());
  expect_refused(fp.coordinator->add_moments(1, {request.request_id, 2}),
                 "repeated");
  EXPECT_EQ(fp.coordinator->members_owing_moments(),
            std::set<std::uint32_t>{2});
}

TEST(CoordinatorTest, ImpossibleMomentsCountRefused) {
  // Every SNP is carried by 5 of GDO 1's 400 cases, so no pair co-occurs
  // more than 5 times.
  FarPairFixture fp;
  const MomentsRequest request = fp.first_request();
  expect_refused(fp.coordinator->add_moments(1, {request.request_id, 6}),
                 "disagrees with the phase-1 counts");
  EXPECT_EQ(fp.coordinator->members_owing_moments(),
            (std::set<std::uint32_t>{1, 2}));
  EXPECT_TRUE(fp.coordinator->add_moments(1, {request.request_id, 5}).ok());
}

}  // namespace
}  // namespace gendpr::core
