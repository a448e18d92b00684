#include "stats/attacks.hpp"

#include "stats/lr_test.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "genome/cohort.hpp"
#include "lr_reference.hpp"

namespace gendpr::stats {
namespace {

/// Homer's D statistic for one individual over the released SNPs, one SNP
/// at a time: the reference homer_scores is checked against.
/// `genotype[i]` is the victim's binary allele value at released SNP i;
/// `case_freq` / `reference_freq` are the published frequencies.
double homer_statistic(const std::vector<std::uint8_t>& genotype,
                       const std::vector<double>& case_freq,
                       const std::vector<double>& reference_freq) {
  if (genotype.size() != case_freq.size() ||
      genotype.size() != reference_freq.size()) {
    throw std::invalid_argument("homer_statistic: size mismatch");
  }
  double d = 0.0;
  for (std::size_t l = 0; l < genotype.size(); ++l) {
    const double y = genotype[l] != 0 ? 1.0 : 0.0;
    d += std::abs(y - reference_freq[l]) - std::abs(y - case_freq[l]);
  }
  return d;
}


TEST(HomerStatisticTest, HandComputedValue) {
  // y = [1, 0], p_case = [0.8, 0.1], p_ref = [0.5, 0.5].
  // SNP0: |1-0.5| - |1-0.8| = 0.5 - 0.2 = 0.3
  // SNP1: |0-0.5| - |0-0.1| = 0.5 - 0.1 = 0.4
  const double d = homer_statistic({1, 0}, {0.8, 0.1}, {0.5, 0.5});
  EXPECT_NEAR(d, 0.7, 1e-12);
}

TEST(HomerStatisticTest, ZeroWhenFrequenciesEqual) {
  EXPECT_DOUBLE_EQ(homer_statistic({1, 0, 1}, {0.3, 0.4, 0.5},
                                   {0.3, 0.4, 0.5}),
                   0.0);
}

TEST(HomerStatisticTest, MemberLooksPositive) {
  // A genome carrying minor alleles where the case pool is enriched should
  // score positive.
  const double d = homer_statistic({1, 1}, {0.9, 0.8}, {0.2, 0.3});
  EXPECT_GT(d, 0.0);
}

TEST(HomerStatisticTest, SizeMismatchThrows) {
  EXPECT_THROW(homer_statistic({1}, {0.5, 0.5}, {0.5}),
               std::invalid_argument);
}

TEST(HomerScoresTest, MatchesPerIndividualStatistic) {
  common::Rng rng(3);
  genome::GenotypeMatrix pop(20, 10);
  for (std::size_t n = 0; n < 20; ++n) {
    for (std::size_t l = 0; l < 10; ++l) {
      if (rng.bernoulli(0.4)) pop.set(n, l, true);
    }
  }
  std::vector<std::uint32_t> released = {1, 3, 7};
  std::vector<double> case_freq = {0.5, 0.6, 0.7};
  std::vector<double> ref_freq = {0.3, 0.4, 0.5};
  const auto scores = homer_scores(pop, released, case_freq, ref_freq);
  ASSERT_EQ(scores.size(), 20u);
  for (std::size_t n = 0; n < 20; ++n) {
    std::vector<std::uint8_t> genotype;
    for (std::uint32_t l : released) {
      genotype.push_back(pop.get(n, l) ? 1 : 0);
    }
    EXPECT_NEAR(scores[n], homer_statistic(genotype, case_freq, ref_freq),
                1e-12)
        << "individual " << n;
  }
}

TEST(LrScoresTest, MatchesMatrixRowSums) {
  common::Rng rng(5);
  genome::GenotypeMatrix pop(15, 8);
  for (std::size_t n = 0; n < 15; ++n) {
    for (std::size_t l = 0; l < 8; ++l) {
      if (rng.bernoulli(0.3)) pop.set(n, l, true);
    }
  }
  std::vector<std::uint32_t> released = {0, 2, 5};
  std::vector<double> case_freq = {0.4, 0.5, 0.6};
  std::vector<double> ref_freq = {0.3, 0.3, 0.3};
  const auto scores = lr_scores(pop, released, case_freq, ref_freq);
  const LrWeights weights = lr_weights(case_freq, ref_freq);
  const LrMatrix matrix = reference::scalar_lr_matrix(pop, released, weights);
  for (std::size_t n = 0; n < 15; ++n) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) row_sum += matrix.at(n, c);
    EXPECT_NEAR(scores[n], row_sum, 1e-12);
  }
}

class AttackComparisonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    genome::CohortSpec spec;
    spec.num_case = 1500;
    spec.num_control = 1500;
    spec.num_snps = 400;
    spec.associated_fraction = 0.2;
    spec.effect_odds = 2.0;
    spec.ld_copy_prob = 0.0;  // independent SNPs: the LR-test's home turf
    spec.seed = 7;
    cohort_ = genome::generate_cohort(spec);
    released_.resize(cohort_.cases.num_snps());
    std::iota(released_.begin(), released_.end(), 0u);
    const auto case_counts = cohort_.cases.allele_counts();
    const auto ref_counts = cohort_.controls.allele_counts();
    for (std::size_t l = 0; l < released_.size(); ++l) {
      case_freq_.push_back(static_cast<double>(case_counts[l]) / 1500.0);
      ref_freq_.push_back(static_cast<double>(ref_counts[l]) / 1500.0);
    }
  }

  genome::Cohort cohort_;
  std::vector<std::uint32_t> released_;
  std::vector<double> case_freq_;
  std::vector<double> ref_freq_;
};

TEST_F(AttackComparisonTest, BothAttacksBeatGuessing) {
  const auto lr_case =
      lr_scores(cohort_.cases, released_, case_freq_, ref_freq_);
  const auto lr_ref =
      lr_scores(cohort_.controls, released_, case_freq_, ref_freq_);
  const auto homer_case =
      homer_scores(cohort_.cases, released_, case_freq_, ref_freq_);
  const auto homer_ref =
      homer_scores(cohort_.controls, released_, case_freq_, ref_freq_);

  const AttackPower lr_power = evaluate_attack(lr_case, lr_ref, 0.1);
  const AttackPower homer_power = evaluate_attack(homer_case, homer_ref, 0.1);
  EXPECT_GT(lr_power.power, 0.2);     // well above the 0.1 guessing floor
  EXPECT_GT(homer_power.power, 0.2);
}

TEST_F(AttackComparisonTest, LrTestAtLeastAsPowerfulAsHomer) {
  // Sankararaman et al.'s empirical result, which the paper leans on when
  // choosing the LR-test as its assessment statistic (§3.2.3).
  const auto lr_case =
      lr_scores(cohort_.cases, released_, case_freq_, ref_freq_);
  const auto lr_ref =
      lr_scores(cohort_.controls, released_, case_freq_, ref_freq_);
  const auto homer_case =
      homer_scores(cohort_.cases, released_, case_freq_, ref_freq_);
  const auto homer_ref =
      homer_scores(cohort_.controls, released_, case_freq_, ref_freq_);

  const AttackPower lr_power = evaluate_attack(lr_case, lr_ref, 0.1);
  const AttackPower homer_power = evaluate_attack(homer_case, homer_ref, 0.1);
  EXPECT_GE(lr_power.power + 0.02, homer_power.power);  // small tolerance
}

TEST(AttackEvaluationTest, NoSignalPowerEqualsFpr) {
  common::Rng rng(11);
  std::vector<double> members(4000);
  std::vector<double> nonmembers(4000);
  for (auto& s : members) s = rng.normal();
  for (auto& s : nonmembers) s = rng.normal();
  const AttackPower power = evaluate_attack(members, nonmembers, 0.1);
  EXPECT_NEAR(power.power, 0.1, 0.03);
}

}  // namespace
}  // namespace gendpr::stats
