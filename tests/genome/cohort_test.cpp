#include "genome/cohort.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ld_reference.hpp"
#include "stats/ld.hpp"

namespace gendpr::genome {
namespace {

CohortSpec small_spec() {
  CohortSpec spec;
  spec.num_case = 500;
  spec.num_control = 500;
  spec.num_snps = 200;
  spec.seed = 42;
  return spec;
}

TEST(CohortTest, DimensionsMatchSpec) {
  const Cohort cohort = generate_cohort(small_spec());
  EXPECT_EQ(cohort.cases.num_individuals(), 500u);
  EXPECT_EQ(cohort.controls.num_individuals(), 500u);
  EXPECT_EQ(cohort.cases.num_snps(), 200u);
  EXPECT_EQ(cohort.base_maf.size(), 200u);
}

TEST(CohortTest, DeterministicForSameSeed) {
  const Cohort a = generate_cohort(small_spec());
  const Cohort b = generate_cohort(small_spec());
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.controls, b.controls);
  EXPECT_EQ(a.associated_snps, b.associated_snps);
}

TEST(CohortTest, DifferentSeedsDiffer) {
  CohortSpec spec = small_spec();
  const Cohort a = generate_cohort(spec);
  spec.seed = 43;
  const Cohort b = generate_cohort(spec);
  EXPECT_NE(a.cases, b.cases);
}

TEST(CohortTest, MafSpectrumHasRareTail) {
  CohortSpec spec = small_spec();
  spec.num_snps = 2000;
  const Cohort cohort = generate_cohort(spec);
  std::size_t rare = 0;
  for (double p : cohort.base_maf) {
    EXPECT_GE(p, spec.maf_floor);
    EXPECT_LE(p, 0.5);
    if (p < 0.05) ++rare;
  }
  // A sizeable rare tail so the MAF phase has real work (paper Table 4
  // removes 27%-70% of SNPs at this stage).
  EXPECT_GT(rare, 2000u / 10);
  EXPECT_LT(rare, 2000u * 9 / 10);
}

TEST(CohortTest, ObservedFrequencyTracksBaseMaf) {
  CohortSpec spec = small_spec();
  spec.num_control = 4000;
  spec.ld_copy_prob = 0.0;  // isolate the frequency check from LD copying
  const Cohort cohort = generate_cohort(spec);
  const auto counts = cohort.controls.allele_counts();
  double total_abs_err = 0.0;
  for (std::size_t l = 0; l < spec.num_snps; ++l) {
    const double observed =
        static_cast<double>(counts[l]) / static_cast<double>(spec.num_control);
    total_abs_err += std::abs(observed - cohort.base_maf[l]);
  }
  EXPECT_LT(total_abs_err / static_cast<double>(spec.num_snps), 0.02);
}

TEST(CohortTest, AdjacentSnpsWithinBlockAreCorrelated) {
  CohortSpec spec = small_spec();
  spec.num_control = 3000;
  spec.ld_block_size = 4;
  spec.ld_copy_prob = 0.6;
  const Cohort cohort = generate_cohort(spec);
  // Average r^2 of within-block adjacent pairs must clearly exceed the
  // across-block baseline.
  double within = 0.0;
  int n_within = 0;
  double across = 0.0;
  int n_across = 0;
  for (std::uint32_t l = 0; l + 1 < spec.num_snps; ++l) {
    const auto m = stats::compute_ld_moments(cohort.controls, l, l + 1);
    const double r2 = stats::ld_r2(m);
    if ((l + 1) % spec.ld_block_size != 0) {
      within += r2;
      ++n_within;
    } else {
      across += r2;
      ++n_across;
    }
  }
  within /= n_within;
  across /= n_across;
  EXPECT_GT(within, 5.0 * across);
  EXPECT_GT(within, 0.1);
}

TEST(CohortTest, AssociatedSnpsShiftCaseFrequency) {
  CohortSpec spec = small_spec();
  spec.num_case = 5000;
  spec.num_control = 5000;
  spec.associated_fraction = 0.1;
  spec.effect_odds = 2.0;
  spec.ld_copy_prob = 0.0;
  const Cohort cohort = generate_cohort(spec);
  ASSERT_FALSE(cohort.associated_snps.empty());
  const auto case_counts = cohort.cases.allele_counts();
  const auto control_counts = cohort.controls.allele_counts();
  double mean_shift = 0.0;
  for (std::uint32_t l : cohort.associated_snps) {
    const double case_freq = static_cast<double>(case_counts[l]) /
                             static_cast<double>(spec.num_case);
    const double control_freq = static_cast<double>(control_counts[l]) /
                                static_cast<double>(spec.num_control);
    mean_shift += case_freq - control_freq;
  }
  mean_shift /= static_cast<double>(cohort.associated_snps.size());
  EXPECT_GT(mean_shift, 0.01);
}

TEST(CohortTest, AssociatedFractionRespected) {
  CohortSpec spec = small_spec();
  spec.associated_fraction = 0.05;
  const Cohort cohort = generate_cohort(spec);
  EXPECT_EQ(cohort.associated_snps.size(), 10u);  // 5% of 200
}

TEST(CohortTest, ZeroSnpsRejected) {
  CohortSpec spec = small_spec();
  spec.num_snps = 0;
  EXPECT_THROW(generate_cohort(spec), std::invalid_argument);
}

TEST(EqualPartitionTest, EvenSplit) {
  const auto parts = equal_partition(100, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& [begin, end] : parts) EXPECT_EQ(end - begin, 25u);
  EXPECT_EQ(parts.front().first, 0u);
  EXPECT_EQ(parts.back().second, 100u);
}

TEST(EqualPartitionTest, UnevenSplitDistributesRemainder) {
  const auto parts = equal_partition(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].second - parts[0].first, 4u);
  EXPECT_EQ(parts[1].second - parts[1].first, 3u);
  EXPECT_EQ(parts[2].second - parts[2].first, 3u);
  // Contiguous cover.
  EXPECT_EQ(parts[0].second, parts[1].first);
  EXPECT_EQ(parts[1].second, parts[2].first);
}

TEST(EqualPartitionTest, MorePartsThanItems) {
  const auto parts = equal_partition(2, 5);
  ASSERT_EQ(parts.size(), 5u);
  std::size_t total = 0;
  for (const auto& [begin, end] : parts) total += end - begin;
  EXPECT_EQ(total, 2u);
}

TEST(EqualPartitionTest, ZeroPartsRejected) {
  EXPECT_THROW(equal_partition(10, 0), std::invalid_argument);
}

// Property sweep: partition always covers [0, total) contiguously.
class PartitionSweepTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PartitionSweepTest, CoversRange) {
  const auto [total, parts_count] = GetParam();
  const auto parts = equal_partition(total, parts_count);
  ASSERT_EQ(parts.size(), parts_count);
  std::size_t cursor = 0;
  for (const auto& [begin, end] : parts) {
    EXPECT_EQ(begin, cursor);
    EXPECT_LE(begin, end);
    cursor = end;
  }
  EXPECT_EQ(cursor, total);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionSweepTest,
    ::testing::Values(std::make_pair(14860u, 2u), std::make_pair(14860u, 3u),
                      std::make_pair(14860u, 5u), std::make_pair(14860u, 7u),
                      std::make_pair(7430u, 7u), std::make_pair(1u, 1u),
                      std::make_pair(0u, 3u)));

}  // namespace
}  // namespace gendpr::genome
