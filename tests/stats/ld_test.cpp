#include "stats/ld.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ld_reference.hpp"
#include "stats/special.hpp"

namespace gendpr::stats {
namespace {

// chi2_sf(x, 1) is 0 from about x = 1,490 on.
constexpr double kMaxSweep = 1600.0;

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

/// Statistics across both bracket edges of `cutoff` (dense relative steps
/// and the nearest doubles around each finite edge) and over the whole
/// range, 0 and NaN included.
std::vector<double> decision_sweep(const LdCutoff& cutoff) {
  std::vector<double> xs = {0.0, std::nan(""), 3.0, kMaxSweep};
  for (double x = 1e-40; x < kMaxSweep; x *= 1.002) xs.push_back(x);
  for (const double edge : {cutoff.lower(), cutoff.upper()}) {
    if (!std::isfinite(edge)) continue;
    for (int k = -3000; k <= 3000; ++k) xs.push_back(edge * (1.0 + k * 1e-6));
    double below = edge;
    double above = edge;
    for (int k = 0; k < 200; ++k) {
      xs.push_back(below = std::nextafter(below, 0.0));
      xs.push_back(above = std::nextafter(above, kMaxSweep));
    }
  }
  return xs;
}

TEST(LdCutoffTest, DecisionIsTheChi2SfComparison) {
  // Q(1/2, 3/2): the cutoff whose critical statistic is the series /
  // continued-fraction switch at x = 3.
  const double at_switch = chi2_sf(3.0, 1.0);
  for (const double value :
       {1e-5, 0.05, at_switch, 0.0, -0.5, 1.0, 1e-300}) {
    SCOPED_TRACE(value);
    const LdCutoff cutoff(value);
    std::size_t evaluated = 0;
    for (const double x : decision_sweep(cutoff)) {
      const LdCutoff::Decision decision = cutoff.decide(x);
      ASSERT_EQ(decision.independent, chi2_sf(x, 1.0) > value) << "x " << x;
      ASSERT_EQ(decision.evaluated, !(x < cutoff.lower() || x > cutoff.upper()))
          << "x " << x;
      evaluated += decision.evaluated;
    }
    if (value > 0.0 && value < 1.0) {
      // Both edges were shown sound, and the statistic decides all but the
      // statistics near the critical one.
      ASSERT_TRUE(std::isfinite(cutoff.lower()));
      ASSERT_TRUE(std::isfinite(cutoff.upper()));
      EXPECT_LT(cutoff.lower(), cutoff.upper());
      EXPECT_TRUE(cutoff.decide(cutoff.lower() / 2).independent);
      EXPECT_FALSE(cutoff.decide(cutoff.lower() / 2).evaluated);
      EXPECT_FALSE(cutoff.decide(cutoff.upper() * 2).independent);
      EXPECT_FALSE(cutoff.decide(cutoff.upper() * 2).evaluated);
    } else {
      // No shortcut: every statistic takes the exact path.
      EXPECT_EQ(cutoff.lower(), -std::numeric_limits<double>::infinity());
      EXPECT_EQ(cutoff.upper(), std::numeric_limits<double>::infinity());
    }
    EXPECT_GT(evaluated, 0u);
  }
  // The bracket covers the branch switch when the crossing sits on it.
  const LdCutoff switching(at_switch);
  EXPECT_LT(switching.lower(), 3.0);
  EXPECT_GT(switching.upper(), 3.0);
}

TEST(LdCutoffTest, Chi2SfMeetsTheBoundTheBracketAssumes) {
  // The soundness check takes |computed - true| <= 1e-9 * true (+1e-310
  // near underflow); the computed function stays far inside it on both
  // branches. erfc(sqrt(x / 2)) in long double is the true function.
  double worst = 0;
  for (double x = 1e-300; x < 1400.0; x *= 1.0005) {
    const long double truth = std::erfc(std::sqrt(static_cast<long double>(x) / 2));
    const long double error =
        std::fabs(static_cast<long double>(chi2_sf(x, 1.0)) - truth) / truth;
    worst = std::max(worst, static_cast<double>(error));
  }
  for (double x = 2.9; x < 3.1; x += 1e-6) {  // around the branch switch
    const long double truth = std::erfc(std::sqrt(static_cast<long double>(x) / 2));
    const long double error =
        std::fabs(static_cast<long double>(chi2_sf(x, 1.0)) - truth) / truth;
    worst = std::max(worst, static_cast<double>(error));
  }
  EXPECT_LT(worst, 1e-11);
}

}  // namespace
}  // namespace gendpr::stats
