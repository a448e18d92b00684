#include "stats/association.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace gendpr::stats {
namespace {

// The paper's own notation (§3.1, Alg. 1's getMostRanked). The shipped code
// runs the Pearson test and the LD walk (stats/ld.hpp) instead; these stay
// with their tests for readers following the paper.

/// The simplified chi-squared printed in the paper's §3.1.
double paper_chi2(std::uint64_t n_case_minor, std::uint64_t n_control_minor) {
  if (n_control_minor == 0) return 0.0;
  const double diff = static_cast<double>(n_case_minor) -
                      static_cast<double>(n_control_minor);
  return diff * diff / static_cast<double>(n_control_minor);
}

/// Index of the better-ranked of two SNPs: the one with the smaller
/// association p-value (paper's getMostRanked). Ties keep `l1`.
std::uint32_t most_ranked(std::uint32_t l1, std::uint32_t l2,
                          const std::vector<double>& p_values) {
  return p_values[l2] < p_values[l1] ? l2 : l1;
}


TEST(Chi2StatisticTest, NoAssociationIsZero) {
  // Identical proportions in both populations.
  const SinglewiseTable table{.case_minor = 30,
                              .case_total = 100,
                              .control_minor = 30,
                              .control_total = 100};
  EXPECT_NEAR(chi2_statistic(table), 0.0, 1e-12);
  EXPECT_NEAR(chi2_p_value(table), 1.0, 1e-12);
}

TEST(Chi2StatisticTest, HandComputedExample) {
  // 2x2 table: a=20 b=10 / c=80 d=90; n=200.
  // chi2 = 200*(20*90-10*80)^2 / (30*170*100*100) = 200*1000000/51000000.
  const SinglewiseTable table{.case_minor = 20,
                              .case_total = 100,
                              .control_minor = 10,
                              .control_total = 100};
  EXPECT_NEAR(chi2_statistic(table), 200.0 * 1000000.0 / 51000000.0, 1e-9);
}

TEST(Chi2StatisticTest, StrongAssociationLargeStatistic) {
  const SinglewiseTable table{.case_minor = 90,
                              .case_total = 100,
                              .control_minor = 10,
                              .control_total = 100};
  EXPECT_GT(chi2_statistic(table), 100.0);
  EXPECT_LT(chi2_p_value(table), 1e-8);  // "strong association" per §3.1
}

TEST(Chi2StatisticTest, DegenerateMarginsAreZero) {
  EXPECT_EQ(chi2_statistic({0, 100, 0, 100}), 0.0);      // no minor anywhere
  EXPECT_EQ(chi2_statistic({100, 100, 100, 100}), 0.0);  // all minor
  EXPECT_EQ(chi2_statistic({0, 0, 10, 100}), 0.0);       // empty case column
  EXPECT_EQ(chi2_statistic({0, 0, 0, 0}), 0.0);          // empty table
}

TEST(Chi2StatisticTest, SymmetricUnderPopulationSwap) {
  const SinglewiseTable table{.case_minor = 25,
                              .case_total = 120,
                              .control_minor = 40,
                              .control_total = 150};
  const SinglewiseTable swapped{.case_minor = 40,
                                .case_total = 150,
                                .control_minor = 25,
                                .control_total = 120};
  EXPECT_NEAR(chi2_statistic(table), chi2_statistic(swapped), 1e-12);
}

TEST(PaperChi2Test, MatchesFormula) {
  EXPECT_DOUBLE_EQ(paper_chi2(50, 40), 100.0 / 40.0);
  EXPECT_DOUBLE_EQ(paper_chi2(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(paper_chi2(5, 0), 0.0);  // degenerate denominator
}

TEST(MafTest, ComputesFraction) {
  EXPECT_DOUBLE_EQ(minor_allele_frequency(25, 100), 0.25);
  EXPECT_DOUBLE_EQ(minor_allele_frequency(0, 50), 0.0);
  EXPECT_THROW(minor_allele_frequency(1, 0), std::invalid_argument);
}

TEST(MafFilterTest, KeepsAboveCutoff) {
  const std::vector<double> maf = {0.01, 0.05, 0.049, 0.25, 0.5, 0.0};
  const auto retained = maf_filter(maf, 0.05);
  EXPECT_EQ(retained, (std::vector<std::uint32_t>{1, 3, 4}));
}

TEST(MafFilterTest, EmptyInput) {
  EXPECT_TRUE(maf_filter({}, 0.05).empty());
}

TEST(MafFilterTest, AllPass) {
  const auto retained = maf_filter({0.1, 0.2, 0.3}, 0.05);
  EXPECT_EQ(retained.size(), 3u);
}

TEST(MostRankedTest, PicksSmallerPValue) {
  const std::vector<double> p = {0.5, 0.001, 0.2};
  EXPECT_EQ(most_ranked(0, 1, p), 1u);
  EXPECT_EQ(most_ranked(1, 2, p), 1u);
  EXPECT_EQ(most_ranked(0, 2, p), 2u);
}

TEST(MostRankedTest, TiesKeepFirst) {
  const std::vector<double> p = {0.3, 0.3};
  EXPECT_EQ(most_ranked(0, 1, p), 0u);
  EXPECT_EQ(most_ranked(1, 0, p), 1u);
}

}  // namespace
}  // namespace gendpr::stats
