// Bit-identity of the intersection-aware combination sweep.
//
// The pruned sweep (StudyConfig::prune) reorders combinations, folds the
// running intersection eagerly, truncates LD walks and skips walks past an
// empty intersection — all of which are pure work reductions: the per-phase
// survivor sets L', L'', and L_safe must be byte-identical to the unpruned
// protocol's, across collusion policies and including degraded (dead-GDO)
// runs. The LR phase runs one sweep in both modes (every live combination
// is selected), so final_power is identical too.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "gendpr/federation.hpp"
#include "gendpr/trusted.hpp"
#include "genome/cohort.hpp"
#include "obs/observability.hpp"
#include "session_harness.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort() {
  genome::CohortSpec spec;  // defaults include block LD and associated SNPs
  spec.num_case = 360;
  spec.num_control = 240;
  spec.num_snps = 120;
  spec.seed = 17;
  return genome::generate_cohort(spec);
}

StudyResult run(const genome::Cohort& cohort, std::uint32_t num_gdos,
                std::uint32_t f, bool prune, obs::Observability* obs = nullptr,
                std::uint32_t tile_width = 0) {
  FederationSpec spec;
  spec.num_gdos = num_gdos;
  spec.policy = CollusionPolicy::fixed(f);
  spec.config.prune = prune;
  spec.config.snp_tile_width = tile_width;
  spec.obs = obs;
  const auto result = run_federated_study(cohort, spec);
  EXPECT_TRUE(result.ok()) << "G=" << num_gdos << " f=" << f
                           << " prune=" << prune;
  return result.ok() ? result.value() : StudyResult{};
}

TEST(PruneEquivalenceTest, SafeSetsBitIdenticalAcrossPolicies) {
  const genome::Cohort cohort = test_cohort();
  for (std::uint32_t g = 3; g <= 6; ++g) {
    for (std::uint32_t f : {1u, 2u}) {
      const StudyResult unpruned = run(cohort, g, f, /*prune=*/false);
      const StudyResult pruned = run(cohort, g, f, /*prune=*/true);
      EXPECT_EQ(pruned.outcome.l_prime, unpruned.outcome.l_prime)
          << "G=" << g << " f=" << f;
      EXPECT_EQ(pruned.outcome.l_double_prime, unpruned.outcome.l_double_prime)
          << "G=" << g << " f=" << f;
      EXPECT_EQ(pruned.outcome.l_safe, unpruned.outcome.l_safe)
          << "G=" << g << " f=" << f;
      EXPECT_EQ(pruned.outcome.final_power, unpruned.outcome.final_power)
          << "G=" << g << " f=" << f;
      // The pruned sweep never fetches more distinct pairs than the
      // unpruned one (truncated walks are prefixes of full walks).
      EXPECT_LE(pruned.ld_pairs_fetched, unpruned.ld_pairs_fetched)
          << "G=" << g << " f=" << f;
      EXPECT_TRUE(pruned.pruning.enabled);
      EXPECT_FALSE(unpruned.pruning.enabled);
      // Mask trajectories are recorded and monotone non-increasing.
      for (const auto* sizes :
           {&pruned.pruning.maf_mask_sizes, &pruned.pruning.ld_mask_sizes,
            &pruned.pruning.lr_mask_sizes}) {
        for (std::size_t i = 1; i < sizes->size(); ++i) {
          EXPECT_LE((*sizes)[i], (*sizes)[i - 1]) << "G=" << g << " f=" << f;
        }
      }
      if (!pruned.pruning.maf_mask_sizes.empty()) {
        EXPECT_EQ(pruned.pruning.maf_mask_sizes.back(),
                  pruned.outcome.l_prime.size());
      }
      // The LR fold visits every live combination and lands on L_safe.
      ASSERT_EQ(pruned.pruning.lr_mask_sizes.size(), pruned.live_combinations)
          << "G=" << g << " f=" << f;
      EXPECT_EQ(pruned.pruning.lr_mask_sizes.back(),
                pruned.outcome.l_safe.size());
    }
  }
}

TEST(PruneEquivalenceTest, TiledAndMonolithicPrunedSweepAgree) {
  const genome::Cohort cohort = test_cohort();
  const StudyResult unpruned = run(cohort, 4, 1, /*prune=*/false);
  const StudyResult tiled =
      run(cohort, 4, 1, /*prune=*/true, nullptr, /*tile_width=*/32);
  EXPECT_EQ(tiled.outcome.l_prime, unpruned.outcome.l_prime);
  EXPECT_EQ(tiled.outcome.l_double_prime, unpruned.outcome.l_double_prime);
  EXPECT_EQ(tiled.outcome.l_safe, unpruned.outcome.l_safe);
  EXPECT_GT(tiled.maf_tiles, 1u);
}

TEST(PruneEquivalenceTest, PrunedSweepDoesMeasurablyLessWork) {
  const genome::Cohort cohort = test_cohort();
  obs::Observability obs_unpruned;
  obs::Observability obs_pruned;
  const StudyResult unpruned =
      run(cohort, 6, 2, /*prune=*/false, &obs_unpruned);
  const StudyResult pruned = run(cohort, 6, 2, /*prune=*/true, &obs_pruned);
  EXPECT_EQ(pruned.outcome.l_safe, unpruned.outcome.l_safe);

  // One LR sweep: both modes select every live combination on the same
  // planes, so the LR ledger and the residual power match exactly.
  EXPECT_EQ(pruned.outcome.final_power, unpruned.outcome.final_power);
  EXPECT_EQ(obs_pruned.metrics.counter("lr.selections"), 15u);
  EXPECT_EQ(obs_unpruned.metrics.counter("lr.selections"), 15u);
  EXPECT_EQ(obs_pruned.metrics.counter("lr.plane_bytes"),
            obs_unpruned.metrics.counter("lr.plane_bytes"));

  // Chi-squared work drops from C * num_snps to C * |L'| (or less when
  // walks are skipped outright).
  EXPECT_LT(obs_pruned.metrics.counter("coordinator.chi2_values_computed"),
            obs_unpruned.metrics.counter("coordinator.chi2_values_computed"));
  // MAF evaluations shrink with the per-tile mask.
  EXPECT_LT(obs_pruned.metrics.counter("coordinator.maf_snps_evaluated"),
            obs_unpruned.metrics.counter("coordinator.maf_snps_evaluated"));
}

TEST(PruneEquivalenceTest, DegradedRunsStayBitIdentical) {
  // GDO 2 submits its summary, then goes silent; the leader declares it
  // dead mid-walk. The pruned sweep's pass restart must land on the same
  // survivor sets the unpruned path computes over the live combinations.
  genome::CohortSpec cohort_spec;
  cohort_spec.num_case = 300;
  cohort_spec.num_control = 200;
  cohort_spec.num_snps = 60;
  cohort_spec.seed = 31;
  const genome::Cohort cohort = genome::generate_cohort(cohort_spec);

  auto run_degraded = [&](bool prune) {
    tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x52}};
    tee::Platform platform0{1, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{1})};
    tee::Platform platform1{2, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{2})};
    tee::Platform platform2{3, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{3})};

    StudyAnnounce announce;
    announce.study_id = 1;
    announce.num_snps = static_cast<std::uint32_t>(cohort.cases.num_snps());
    announce.config.prune = prune;
    // f = 1: combinations {0,1}, {0,2}, {1,2} — losing GDO 2 leaves {0,1}.
    announce.combinations =
        Coordinator::build_combinations(3, CollusionPolicy::fixed(1));

    LeaderSession leader(platform0, 0, 3, cohort.cases.slice_rows(0, 100),
                         cohort.controls, announce);
    leader.set_receive_timeout(std::chrono::milliseconds(250));
    MemberSession honest(platform1, 1, 0, cohort.cases.slice_rows(100, 200));
    honest.set_receive_timeout(std::chrono::milliseconds(5000));
    // GDO 2 crashes right after phase-1 input submission (mirrors the
    // liveness tests in failure_injection_test.cpp).
    ScriptedMember crashing(platform2, 2, 0, cohort.cases.slice_rows(200, 300),
                            ScriptedMember::until_summary());
    SessionHarness harness;
    harness.add(0, leader);
    harness.add(1, honest);
    harness.add(2, crashing);
    harness.run();

    EXPECT_TRUE(leader.status().ok())
        << (leader.status().ok() ? "" : leader.status().error().to_string());
    if (!leader.status().ok()) return StudyResult{};
    const StudyResult& result = leader.result();
    EXPECT_EQ(result.dead_gdos, (std::vector<std::uint32_t>{2}));
    // The surviving member converges on the leader's safe set too.
    EXPECT_TRUE(honest.enclave().study_complete());
    EXPECT_EQ(honest.enclave().safe_snps(), result.outcome.l_safe);
    return result;
  };

  const StudyResult unpruned = run_degraded(false);
  const StudyResult pruned = run_degraded(true);
  EXPECT_EQ(pruned.outcome.l_prime, unpruned.outcome.l_prime);
  EXPECT_EQ(pruned.outcome.l_double_prime, unpruned.outcome.l_double_prime);
  EXPECT_EQ(pruned.outcome.l_safe, unpruned.outcome.l_safe);
  EXPECT_EQ(pruned.outcome.final_power, unpruned.outcome.final_power);
  EXPECT_FALSE(unpruned.outcome.l_safe.empty());
}

}  // namespace
}  // namespace gendpr::core
