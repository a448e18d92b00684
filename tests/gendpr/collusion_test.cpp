// Collusion-tolerant GenDPR (§5.6 / Table 5): per-combination evaluation and
// intersection of safe sets.
#include <gtest/gtest.h>

#include <algorithm>

#include "gendpr/federation.hpp"

namespace gendpr::core {
namespace {

genome::Cohort collusion_cohort() {
  genome::CohortSpec spec;
  spec.num_case = 900;
  spec.num_control = 900;
  spec.num_snps = 240;
  spec.associated_fraction = 0.15;
  spec.effect_odds = 2.2;  // strong signal so per-subset LR tests bite
  spec.seed = 21;
  return genome::generate_cohort(spec);
}

/// |a intersect b| - the paper's "safe released" accounting compares the
/// collusion-tolerant release against the f=0 release.
std::size_t intersection_size(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(CollusionTest, FixedFWithholdsVulnerableSnps) {
  const genome::Cohort cohort = collusion_cohort();
  FederationSpec base;
  base.num_gdos = 3;
  base.seed = 5;
  const auto no_collusion = run_federated_study(cohort, base);
  ASSERT_TRUE(no_collusion.ok());
  const auto& f0_safe = no_collusion.value().outcome.l_safe;

  FederationSpec tolerant = base;
  tolerant.policy = CollusionPolicy::fixed(1);
  const auto result = run_federated_study(cohort, tolerant);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().num_combinations, 3u);  // C(3,2)

  // Table 5's accounting: SNPs of the f=0 release that the tolerant run no
  // longer certifies are "vulnerable" and withheld; the tolerant release is
  // strictly smaller on this cohort.
  const std::size_t released =
      intersection_size(result.value().outcome.l_safe, f0_safe);
  EXPECT_LT(result.value().outcome.l_safe.size(), f0_safe.size());
  EXPECT_GT(f0_safe.size() - released, 0u);  // some vulnerable SNPs found
  EXPECT_GT(released, 0u);                   // but most data still released
}

TEST(CollusionTest, CombinationCountsMatchPolicy) {
  const genome::Cohort cohort = collusion_cohort();
  struct Case {
    std::uint32_t g;
    CollusionPolicy policy;
    std::size_t expected;
  };
  const Case cases[] = {
      {3, CollusionPolicy::fixed(2), 3},        // C(3,1)
      {4, CollusionPolicy::fixed(2), 6},        // C(4,2)
      {4, CollusionPolicy::conservative(), 14}, // 4+6+4
      {5, CollusionPolicy::fixed(4), 5},        // C(5,1)
  };
  for (const Case& c : cases) {
    FederationSpec spec;
    spec.num_gdos = c.g;
    spec.policy = c.policy;
    spec.seed = 3;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().num_combinations, c.expected)
        << "G=" << c.g;
  }
}

TEST(CollusionTest, ConservativeModeIsMostRestrictive) {
  const genome::Cohort cohort = collusion_cohort();
  FederationSpec spec;
  spec.num_gdos = 4;
  spec.seed = 9;

  spec.policy = CollusionPolicy::conservative();
  const auto conservative = run_federated_study(cohort, spec);
  ASSERT_TRUE(conservative.ok());

  // The conservative f={1..G-1} mode covers every fixed-f combination set,
  // so it releases at most as many SNPs as each fixed-f run (Table 5: the
  // f={...} rows have the smallest release in every group).
  for (unsigned f = 1; f <= 3; ++f) {
    spec.policy = CollusionPolicy::fixed(f);
    const auto fixed = run_federated_study(cohort, spec);
    ASSERT_TRUE(fixed.ok());
    EXPECT_LE(conservative.value().outcome.l_safe.size(),
              fixed.value().outcome.l_safe.size())
        << "f=" << f;
  }
}

TEST(CollusionTest, SafePowerBoundHoldsPerCombination) {
  const genome::Cohort cohort = collusion_cohort();
  FederationSpec spec;
  spec.num_gdos = 4;
  spec.policy = CollusionPolicy::conservative();
  spec.seed = 13;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().outcome.final_power,
            spec.config.lr_power_threshold);
}

TEST(CollusionTest, ParallelAndSerialCombinationEvaluationAgree) {
  const genome::Cohort cohort = collusion_cohort();
  FederationSpec spec;
  spec.num_gdos = 4;
  spec.policy = CollusionPolicy::fixed(2);
  spec.seed = 17;
  spec.parallel_combinations = true;
  const auto parallel = run_federated_study(cohort, spec);
  spec.parallel_combinations = false;
  const auto serial = run_federated_study(cohort, spec);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(parallel.value().outcome.l_safe, serial.value().outcome.l_safe);
  EXPECT_EQ(parallel.value().outcome.l_double_prime,
            serial.value().outcome.l_double_prime);
  EXPECT_EQ(parallel.value().outcome.final_power,
            serial.value().outcome.final_power);
}

TEST(CollusionTest, VulnerableSnpsDetectedOnSkewedCohort) {
  // Build a cohort where one GDO's slice is distinctive: subsets that
  // isolate it have higher identification power, so the collusion-tolerant
  // run must withhold SNPs the f=0 run would release (Table 5's
  // "vulnerable SNPs" column).
  genome::CohortSpec spec;
  spec.num_case = 600;
  spec.num_control = 600;
  spec.num_snps = 200;
  spec.associated_fraction = 0.3;
  spec.effect_odds = 3.0;
  spec.seed = 29;
  const genome::Cohort cohort = genome::generate_cohort(spec);

  FederationSpec base;
  base.num_gdos = 3;
  base.seed = 19;
  const auto f0 = run_federated_study(cohort, base);
  ASSERT_TRUE(f0.ok());

  FederationSpec tolerant = base;
  tolerant.policy = CollusionPolicy::fixed(2);  // singleton subsets
  const auto result = run_federated_study(cohort, tolerant);
  ASSERT_TRUE(result.ok());

  const std::size_t released = intersection_size(
      result.value().outcome.l_safe, f0.value().outcome.l_safe);
  const std::size_t vulnerable = f0.value().outcome.l_safe.size() - released;
  EXPECT_GT(vulnerable, 0u);
  EXPECT_LT(result.value().outcome.l_safe.size(),
            f0.value().outcome.l_safe.size());
}

}  // namespace
}  // namespace gendpr::core
