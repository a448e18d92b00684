#include "contingency_reference.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ld_reference.hpp"
#include "stats/ld.hpp"

namespace gendpr::stats {
namespace {

genome::GenotypeMatrix random_matrix(std::size_t n, std::uint64_t seed,
                                     double p0 = 0.3, double p1 = 0.4) {
  common::Rng rng(seed);
  genome::GenotypeMatrix m(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    m.set(i, 0, rng.bernoulli(p0));
    m.set(i, 1, rng.bernoulli(p1));
  }
  return m;
}

TEST(PairwiseTableTest, CountsSumToPopulation) {
  const auto m = random_matrix(500, 1);
  const PairwiseTable table = pairwise_table(m, 0, 1);
  EXPECT_EQ(table.total(), 500u);
  EXPECT_EQ(table.row0() + table.row1(), 500u);
  EXPECT_EQ(table.col0() + table.col1(), 500u);
}

TEST(PairwiseTableTest, HandComputedCells) {
  genome::GenotypeMatrix m(4, 2);
  // Individuals: (0,0), (0,1), (1,0), (1,1).
  m.set(1, 1, true);
  m.set(2, 0, true);
  m.set(3, 0, true);
  m.set(3, 1, true);
  const PairwiseTable table = pairwise_table(m, 0, 1);
  EXPECT_EQ(table.c00, 1u);
  EXPECT_EQ(table.c01, 1u);
  EXPECT_EQ(table.c10, 1u);
  EXPECT_EQ(table.c11, 1u);
}

TEST(PairwiseTableTest, MarginsMatchAlleleCounts) {
  const auto m = random_matrix(300, 2);
  const PairwiseTable table = pairwise_table(m, 0, 1);
  EXPECT_EQ(table.row1(), m.allele_count(0));
  EXPECT_EQ(table.col1(), m.allele_count(1));
}

TEST(PairwiseTableTest, Additivity) {
  const auto m = random_matrix(400, 3);
  PairwiseTable whole = pairwise_table(m, 0, 1);
  PairwiseTable assembled = pairwise_table(m.slice_rows(0, 150), 0, 1);
  assembled += pairwise_table(m.slice_rows(150, 400), 0, 1);
  EXPECT_EQ(assembled.c00, whole.c00);
  EXPECT_EQ(assembled.c11, whole.c11);
  EXPECT_EQ(assembled.total(), whole.total());
}

TEST(PairwiseR2Test, PerfectCorrelationIsOne) {
  genome::GenotypeMatrix m(100, 2);
  common::Rng rng(5);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool v = rng.bernoulli(0.5);
    m.set(i, 0, v);
    m.set(i, 1, v);
  }
  EXPECT_NEAR(pairwise_r2(pairwise_table(m, 0, 1)), 1.0, 1e-12);
}

TEST(PairwiseR2Test, DegenerateMarginIsZero) {
  genome::GenotypeMatrix m(50, 2);  // SNP 0 constant major
  common::Rng rng(7);
  for (std::size_t i = 0; i < 50; ++i) m.set(i, 1, rng.bernoulli(0.5));
  EXPECT_DOUBLE_EQ(pairwise_r2(pairwise_table(m, 0, 1)), 0.0);
}

// The paper's table-based r^2 must equal the moments-based r^2 GenDPR ships
// over the wire, for any binary population.
class EquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceSweep, TableR2EqualsMomentsR2) {
  common::Rng seed_rng(GetParam());
  const auto m = random_matrix(200 + seed_rng.uniform_int(300), GetParam(),
                               0.1 + 0.5 * seed_rng.uniform(),
                               0.1 + 0.5 * seed_rng.uniform());
  const PairwiseTable table = pairwise_table(m, 0, 1);
  const LdMoments moments = compute_ld_moments(m, 0, 1);
  EXPECT_NEAR(pairwise_r2(table), ld_r2(moments), 1e-9);
  EXPECT_NEAR(pairwise_p_value(table), ld_p_value(moments), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(PairwiseR2Test, EmptyPopulation) {
  PairwiseTable empty;
  EXPECT_DOUBLE_EQ(pairwise_r2(empty), 0.0);
  EXPECT_DOUBLE_EQ(pairwise_p_value(empty), 1.0);
}

}  // namespace
}  // namespace gendpr::stats
