#include "stats/ld.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ld_reference.hpp"
#include "stats/special.hpp"

namespace gendpr::stats {
namespace {

genome::GenotypeMatrix random_matrix(std::size_t n, std::size_t l,
                                     std::uint64_t seed, double p = 0.3) {
  common::Rng rng(seed);
  genome::GenotypeMatrix m(n, l);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      if (rng.bernoulli(p)) m.set(i, j, true);
    }
  }
  return m;
}

TEST(LdMomentsTest, ComputedFromMatrix) {
  genome::GenotypeMatrix m(4, 2);
  m.set(0, 0, true);
  m.set(0, 1, true);
  m.set(1, 0, true);
  m.set(3, 1, true);
  const LdMoments mom = compute_ld_moments(m, 0, 1);
  EXPECT_EQ(mom.n, 4u);
  EXPECT_DOUBLE_EQ(mom.mu_x, 2.0);
  EXPECT_DOUBLE_EQ(mom.mu_y, 2.0);
  EXPECT_DOUBLE_EQ(mom.mu_xy, 1.0);
  EXPECT_DOUBLE_EQ(mom.mu_x2, 2.0);  // binary: x^2 == x
  EXPECT_DOUBLE_EQ(mom.mu_y2, 2.0);
}

TEST(LdMomentsTest, AdditivityEqualsPooledComputation) {
  // Core federated-correctness property: moments over GDO partitions sum to
  // the moments of the pooled population.
  const genome::GenotypeMatrix pooled = random_matrix(300, 5, 11);
  const LdMoments whole = compute_ld_moments(pooled, 1, 2);
  LdMoments assembled;
  const std::size_t cuts[] = {0, 100, 180, 300};
  for (int part = 0; part < 3; ++part) {
    const auto slice = pooled.slice_rows(cuts[part], cuts[part + 1]);
    assembled += compute_ld_moments(slice, 1, 2);
  }
  EXPECT_EQ(assembled.n, whole.n);
  EXPECT_DOUBLE_EQ(assembled.mu_x, whole.mu_x);
  EXPECT_DOUBLE_EQ(assembled.mu_xy, whole.mu_xy);
  EXPECT_DOUBLE_EQ(ld_r2(assembled), ld_r2(whole));
}

TEST(LdR2Test, PerfectCorrelationIsOne) {
  genome::GenotypeMatrix m(100, 2);
  common::Rng rng(13);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool v = rng.bernoulli(0.4);
    m.set(i, 0, v);
    m.set(i, 1, v);
  }
  EXPECT_NEAR(ld_r2(compute_ld_moments(m, 0, 1)), 1.0, 1e-12);
}

TEST(LdR2Test, PerfectAntiCorrelationIsOne) {
  genome::GenotypeMatrix m(100, 2);
  common::Rng rng(17);
  for (std::size_t i = 0; i < 100; ++i) {
    const bool v = rng.bernoulli(0.5);
    m.set(i, 0, v);
    m.set(i, 1, !v);
  }
  EXPECT_NEAR(ld_r2(compute_ld_moments(m, 0, 1)), 1.0, 1e-12);
}

TEST(LdR2Test, IndependentColumnsNearZero) {
  const genome::GenotypeMatrix m = random_matrix(20000, 2, 19);
  EXPECT_LT(ld_r2(compute_ld_moments(m, 0, 1)), 0.001);
}

TEST(LdR2Test, ConstantColumnIsZero) {
  genome::GenotypeMatrix m(50, 2);
  for (std::size_t i = 0; i < 50; ++i) m.set(i, 0, true);  // constant 1
  common::Rng rng(23);
  for (std::size_t i = 0; i < 50; ++i) m.set(i, 1, rng.bernoulli(0.5));
  EXPECT_DOUBLE_EQ(ld_r2(compute_ld_moments(m, 0, 1)), 0.0);
}

TEST(LdR2Test, EmptyPopulationIsZero) {
  LdMoments empty;
  EXPECT_DOUBLE_EQ(ld_r2(empty), 0.0);
  EXPECT_DOUBLE_EQ(ld_p_value(empty), 1.0);
}

TEST(LdPValueTest, CorrelatedPairSignificant) {
  genome::GenotypeMatrix m(1000, 2);
  common::Rng rng(29);
  for (std::size_t i = 0; i < 1000; ++i) {
    const bool v = rng.bernoulli(0.4);
    m.set(i, 0, v);
    m.set(i, 1, rng.bernoulli(0.9) ? v : rng.bernoulli(0.4));
  }
  EXPECT_LT(ld_p_value(compute_ld_moments(m, 0, 1)), 1e-5);
}

TEST(LdPValueTest, IndependentPairNotSignificant) {
  const genome::GenotypeMatrix m = random_matrix(500, 2, 31);
  EXPECT_GT(ld_p_value(compute_ld_moments(m, 0, 1)), 1e-5);
}

TEST(GreedyLdPruneTest, AllIndependentKeepsAll) {
  const std::vector<std::uint32_t> snps = {0, 1, 2, 3};
  const std::vector<double> assoc_p(4, 0.5);
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p, [](std::uint32_t, std::uint32_t) { return 0.5; });
  EXPECT_EQ(retained, snps);
}

TEST(GreedyLdPruneTest, AllDependentKeepsBestRanked) {
  const std::vector<std::uint32_t> snps = {0, 1, 2, 3};
  const std::vector<double> assoc_p = {0.5, 0.01, 0.3, 0.2};
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p, [](std::uint32_t, std::uint32_t) { return 1e-9; });
  EXPECT_EQ(retained, (std::vector<std::uint32_t>{1}));
}

TEST(GreedyLdPruneTest, MixedBlocksKeepOnePerBlock) {
  // Pairs (0,1) and (2,3) dependent; pair (1,2) independent.
  const std::vector<std::uint32_t> snps = {0, 1, 2, 3};
  const std::vector<double> assoc_p = {0.1, 0.2, 0.4, 0.3};
  const auto retained = greedy_ld_prune(
      snps, 1e-5, assoc_p, [](std::uint32_t a, std::uint32_t b) {
        const bool same_block = (a / 2) == (b / 2);
        return same_block ? 1e-9 : 0.9;
      });
  // Block {0,1}: keep 0 (better p). Block {2,3}: keep 3.
  EXPECT_EQ(retained, (std::vector<std::uint32_t>{0, 3}));
}

TEST(GreedyLdPruneTest, EmptyAndSingleton) {
  const std::vector<double> assoc_p(4, 0.5);
  EXPECT_TRUE(greedy_ld_prune({}, 1e-5, assoc_p,
                              [](std::uint32_t, std::uint32_t) { return 0.5; })
                  .empty());
  const std::vector<std::uint32_t> one = {2};
  EXPECT_EQ(greedy_ld_prune(one, 1e-5, assoc_p,
                            [](std::uint32_t, std::uint32_t) { return 0.5; }),
            one);
}

}  // namespace
}  // namespace gendpr::stats
