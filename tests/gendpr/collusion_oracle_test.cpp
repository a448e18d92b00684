// The collusion-tolerant sweep checked against a central oracle.
//
// Every federated run below is compared with collusion_oracle.hpp, which
// recomputes L', L'', L_safe and the final power from the pooled genotypes
// of each honest subset without the Coordinator: across G and f, tiled,
// under the conservative policy, and in a degraded run where a member dies
// between the MAF and LD phases.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "collusion_oracle.hpp"
#include "gendpr/federation.hpp"
#include "genome/cohort.hpp"
#include "session_harness.hpp"

namespace gendpr::core {
namespace {

using oracle::CollusionOracleInput;
using oracle::CollusionOracleResult;

genome::Cohort test_cohort() {
  genome::CohortSpec spec;  // defaults include block LD and associated SNPs
  spec.num_case = 360;
  spec.num_control = 240;
  spec.num_snps = 120;
  spec.seed = 17;
  return genome::generate_cohort(spec);
}

/// The case slices run_federated_study hands its GDOs.
std::vector<genome::GenotypeMatrix> gdo_slices(const genome::Cohort& cohort,
                                               std::uint32_t num_gdos) {
  std::vector<genome::GenotypeMatrix> slices;
  for (const auto& [begin, end] :
       genome::equal_partition(cohort.cases.num_individuals(), num_gdos)) {
    slices.push_back(cohort.cases.slice_rows(begin, end));
  }
  return slices;
}

/// Every honest subset of G - f members, for each f in `fs`.
std::vector<std::vector<std::uint32_t>> honest_subsets(
    std::uint32_t num_gdos, const std::vector<std::uint32_t>& fs) {
  std::vector<std::vector<std::uint32_t>> subsets;
  for (std::uint32_t f : fs) {
    for (auto& members : oracle::subsets_of_size(num_gdos, num_gdos - f)) {
      subsets.push_back(std::move(members));
    }
  }
  return subsets;
}

void expect_matches_oracle(const StudyResult& result,
                           const CollusionOracleResult& expected,
                           const std::string& label) {
  EXPECT_EQ(result.outcome.l_prime, expected.l_prime) << label;
  EXPECT_EQ(result.outcome.l_double_prime, expected.l_double_prime) << label;
  EXPECT_EQ(result.outcome.l_safe, expected.l_safe) << label;
  EXPECT_EQ(result.outcome.final_power, expected.final_power) << label;
  // The shapes are non-trivial, so a sweep that drops a phase cannot pass
  // by agreeing on empty sets.
  EXPECT_FALSE(expected.l_safe.empty()) << label;
  EXPECT_LT(expected.l_double_prime.size(), expected.l_prime.size()) << label;
}

/// Runs the federation and compares it with the oracle over every subset.
void check_federation(const genome::Cohort& cohort, std::uint32_t num_gdos,
                      CollusionPolicy policy,
                      const std::vector<std::uint32_t>& fs,
                      std::uint32_t tile_width, const std::string& label) {
  FederationSpec spec;
  spec.num_gdos = num_gdos;
  spec.policy = policy;
  spec.config.snp_tile_width = tile_width;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << label << ": " << result.error().to_string();

  CollusionOracleInput input;
  input.case_slices = gdo_slices(cohort, num_gdos);
  input.reference = cohort.controls;
  input.maf_combinations = honest_subsets(num_gdos, fs);
  input.ld_combinations = input.maf_combinations;
  input.config = spec.config;
  ASSERT_EQ(result.value().num_combinations, input.maf_combinations.size())
      << label;
  expect_matches_oracle(result.value(), oracle::collusion_oracle(input), label);
}

TEST(CollusionOracleTest, FixedFMatchesOracleAcrossFederationSizes) {
  const genome::Cohort cohort = test_cohort();
  for (std::uint32_t g = 3; g <= 6; ++g) {
    for (std::uint32_t f : {1u, 2u}) {
      check_federation(cohort, g, CollusionPolicy::fixed(f), {f}, 0,
                       "G=" + std::to_string(g) + " f=" + std::to_string(f));
    }
  }
}

TEST(CollusionOracleTest, TiledSweepMatchesOracle) {
  const genome::Cohort cohort = test_cohort();
  check_federation(cohort, 4, CollusionPolicy::fixed(1), {1}, 32,
                   "G=4 f=1 width=32");
}

TEST(CollusionOracleTest, ConservativeSweepMatchesOracle) {
  const genome::Cohort cohort = test_cohort();
  check_federation(cohort, 4, CollusionPolicy::conservative(), {1, 2, 3}, 0,
                   "G=4 conservative");
}

TEST(CollusionOracleTest, DegradedRunMatchesOracleOverSurvivingSubsets) {
  // GDO 2 submits its summary, then goes silent; the leader declares it
  // dead during the LD walk. The MAF phase saw all three f = 1 subsets
  // {0,1}, {0,2}, {1,2}; LD and LR must run over {0,1} alone.
  genome::CohortSpec cohort_spec;
  cohort_spec.num_case = 300;
  cohort_spec.num_control = 200;
  cohort_spec.num_snps = 60;
  cohort_spec.seed = 31;
  const genome::Cohort cohort = genome::generate_cohort(cohort_spec);

  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x52}};
  tee::Platform platform0{1, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{1})};
  tee::Platform platform1{2, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{2})};
  tee::Platform platform2{3, authority,
                          crypto::Csprng(std::array<std::uint8_t, 32>{3})};

  CollusionOracleInput input;
  for (std::size_t begin : {0, 100, 200}) {
    input.case_slices.push_back(cohort.cases.slice_rows(begin, begin + 100));
  }
  input.reference = cohort.controls;
  input.maf_combinations = honest_subsets(3, {1});
  input.ld_combinations = {{0, 1}};

  LeaderSession leader(platform0, 0, 3,
                       genome::BitPlanes(input.case_slices[0]),
                       genome::BitPlanes(cohort.controls), input.config,
                       CollusionPolicy::fixed(1));
  leader.set_receive_timeout(std::chrono::milliseconds(250));
  MemberSession honest(platform1, 1, 0,
                       genome::BitPlanes(input.case_slices[1]));
  honest.set_receive_timeout(std::chrono::milliseconds(5000));
  ScriptedMember crashing(platform2, 2, 0,
                          genome::BitPlanes(input.case_slices[2]),
                          ScriptedMember::until_summary());
  SessionHarness harness;
  harness.add(0, leader);
  harness.add(1, honest);
  harness.add(2, crashing);
  harness.run();

  ASSERT_TRUE(leader.status().ok()) << leader.status().error().to_string();
  const StudyResult& result = leader.result();
  EXPECT_EQ(result.dead_gdos, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(result.live_combinations, 1u);
  // The surviving member converges on the leader's safe set too.
  EXPECT_TRUE(honest.enclave().study_complete());
  EXPECT_EQ(honest.enclave().safe_snps(), result.outcome.l_safe);
  expect_matches_oracle(result, oracle::collusion_oracle(input), "degraded");
}

}  // namespace
}  // namespace gendpr::core
