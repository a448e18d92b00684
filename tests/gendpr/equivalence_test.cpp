// The paper's Table 4 headline: GenDPR selects exactly the same SNP sets as
// the centralized SecureGenome baseline after every phase, while the naive
// distributed protocol diverges at the LD and LR stages.
#include <gtest/gtest.h>

#include "gendpr/baselines.hpp"
#include "gendpr/federation.hpp"

namespace gendpr::core {
namespace {

genome::Cohort cohort_for(std::uint64_t seed, std::size_t n_case = 800,
                          std::size_t n_snps = 200) {
  genome::CohortSpec spec;
  spec.num_case = n_case;
  spec.num_control = n_case;
  spec.num_snps = n_snps;
  spec.seed = seed;
  return genome::generate_cohort(spec);
}

/// Property sweep: over cohorts, federation sizes, and seeds, GenDPR's
/// selection is byte-identical to the centralized baseline at every phase.
using SweepParam = std::tuple<std::uint64_t, std::uint32_t>;
class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EquivalenceSweep, GenDprMatchesCentralizedEveryPhase) {
  const auto [seed, num_gdos] = GetParam();
  const genome::Cohort cohort = cohort_for(seed);

  const BaselineResult centralized =
      run_centralized(cohort, StudyConfig{});

  FederationSpec spec;
  spec.num_gdos = num_gdos;
  spec.seed = seed * 31 + 1;
  const auto federated = run_federated_study(cohort, spec);
  ASSERT_TRUE(federated.ok()) << federated.error().to_string();

  EXPECT_EQ(federated.value().outcome.l_prime, centralized.outcome.l_prime);
  EXPECT_EQ(federated.value().outcome.l_double_prime,
            centralized.outcome.l_double_prime);
  EXPECT_EQ(federated.value().outcome.l_safe, centralized.outcome.l_safe);
}

INSTANTIATE_TEST_SUITE_P(
    CohortsAndSizes, EquivalenceSweep,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 4ull),
                       ::testing::Values(2u, 3u, 5u)));

TEST(EquivalenceTest, SevenGdosStillExact) {
  const genome::Cohort cohort = cohort_for(11);
  const BaselineResult centralized = run_centralized(cohort, StudyConfig{});
  FederationSpec spec;
  spec.num_gdos = 7;
  const auto federated = run_federated_study(cohort, spec);
  ASSERT_TRUE(federated.ok());
  EXPECT_EQ(federated.value().outcome.l_safe, centralized.outcome.l_safe);
}

TEST(EquivalenceTest, PhasesShrinkInCentralizedBaseline) {
  const genome::Cohort cohort = cohort_for(5);
  const BaselineResult centralized = run_centralized(cohort, StudyConfig{});
  EXPECT_FALSE(centralized.outcome.l_prime.empty());
  EXPECT_LT(centralized.outcome.l_prime.size(), cohort.cases.num_snps());
  EXPECT_LE(centralized.outcome.l_double_prime.size(),
            centralized.outcome.l_prime.size());
  EXPECT_LE(centralized.outcome.l_safe.size(),
            centralized.outcome.l_double_prime.size());
}

TEST(EquivalenceTest, NaiveMatchesAtMafPhase) {
  // Paper: the naive scheme "is able to retain the same SNPs during the MAF
  // evaluation" because count aggregation is still global.
  const genome::Cohort cohort = cohort_for(6);
  const BaselineResult centralized = run_centralized(cohort, StudyConfig{});
  const BaselineResult naive =
      run_naive_distributed(cohort, StudyConfig{}, 3);
  EXPECT_EQ(naive.outcome.l_prime, centralized.outcome.l_prime);
}

TEST(EquivalenceTest, NaiveDivergesDownstream) {
  // With heterogeneous local views the naive LD/LR selections must differ
  // from the correct global selection on LD-heavy cohorts (Table 4 bold).
  bool diverged = false;
  for (std::uint64_t seed : {6ull, 7ull, 8ull, 9ull}) {
    genome::CohortSpec spec;
    spec.num_case = 900;
    spec.num_control = 900;
    spec.num_snps = 300;
    spec.ld_copy_prob = 0.45;  // borderline LD: local p-values flip decisions
    spec.seed = seed;
    const genome::Cohort cohort = genome::generate_cohort(spec);
    const BaselineResult centralized = run_centralized(cohort, StudyConfig{});
    const BaselineResult naive =
        run_naive_distributed(cohort, StudyConfig{}, 5);
    if (naive.outcome.l_double_prime != centralized.outcome.l_double_prime ||
        naive.outcome.l_safe != centralized.outcome.l_safe) {
      diverged = true;
      // The naive intersection can only lose SNPs relative to its own LD
      // input; sanity-check containment in L'.
      for (std::uint32_t snp : naive.outcome.l_safe) {
        EXPECT_TRUE(std::binary_search(naive.outcome.l_prime.begin(),
                                       naive.outcome.l_prime.end(), snp));
      }
      break;
    }
  }
  EXPECT_TRUE(diverged)
      << "naive baseline unexpectedly matched the centralized selection on "
         "every cohort";
}

TEST(EquivalenceTest, NaiveSingleGdoEqualsCentralized) {
  // Degenerate case: one GDO owns all data, so "local" is global.
  const genome::Cohort cohort = cohort_for(10);
  const BaselineResult centralized = run_centralized(cohort, StudyConfig{});
  const BaselineResult naive =
      run_naive_distributed(cohort, StudyConfig{}, 1);
  EXPECT_EQ(naive.outcome.l_double_prime,
            centralized.outcome.l_double_prime);
  EXPECT_EQ(naive.outcome.l_safe, centralized.outcome.l_safe);
}

}  // namespace
}  // namespace gendpr::core
