#include "stats/special.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace gendpr::stats {
namespace {

// The standard normal distribution. No shipped statistic needs it (the LR
// test's power is empirical); it stays with its tests for readers of the
// paper's power approximations.

/// Standard normal CDF.
double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}


/// Standard normal quantile (inverse CDF), p in (0, 1).
/// Acklam's rational approximation refined by one Halley step (|err| < 1e-12).
double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step against the true CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}


TEST(GammaTest, PAtZeroIsZero) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(2.5, 0.0), 1.0);
}

TEST(GammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(GammaTest, HalfIntegerMatchesErf) {
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    EXPECT_NEAR(regularized_gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(GammaTest, PoissonIdentity) {
  // Q(n, x) = sum_{k<n} e^{-x} x^k / k! for integer n.
  const double x = 5.0;
  double sum = 0.0;
  double term = std::exp(-x);
  for (int k = 0; k < 5; ++k) {
    sum += term;
    term *= x / (k + 1);
  }
  EXPECT_NEAR(regularized_gamma_q(5.0, x), sum, 1e-12);
}

TEST(GammaTest, PPlusQIsOne) {
  for (double a : {0.3, 1.0, 2.5, 10.0, 50.0}) {
    for (double x : {0.01, 0.5, 1.0, 3.0, 10.0, 100.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaTest, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.1; x < 20.0; x += 0.1) {
    const double p = regularized_gamma_p(3.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(GammaTest, DomainErrors) {
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(regularized_gamma_p(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(regularized_gamma_q(-2.0, 1.0), std::invalid_argument);
}

TEST(Chi2SfTest, KnownCriticalValues) {
  // Classic chi-squared critical values for 1 dof.
  EXPECT_NEAR(chi2_sf(3.841458820694124, 1.0), 0.05, 1e-10);
  EXPECT_NEAR(chi2_sf(6.634896601021213, 1.0), 0.01, 1e-10);
  EXPECT_NEAR(chi2_sf(10.827566170662733, 1.0), 0.001, 1e-10);
  // 2 dof: sf(x) = exp(-x/2).
  EXPECT_NEAR(chi2_sf(5.991464547107979, 2.0), 0.05, 1e-10);
  EXPECT_NEAR(chi2_sf(4.0, 2.0), std::exp(-2.0), 1e-12);
}

TEST(Chi2SfTest, OneDofMatchesErfc) {
  // sf(x, 1) = erfc(sqrt(x/2)).
  for (double x : {0.5, 1.0, 2.0, 10.0, 30.0}) {
    EXPECT_NEAR(chi2_sf(x, 1.0), std::erfc(std::sqrt(x / 2.0)), 1e-12);
  }
}

TEST(Chi2SfTest, EdgeBehaviour) {
  EXPECT_DOUBLE_EQ(chi2_sf(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(chi2_sf(-3.0, 1.0), 1.0);
  EXPECT_LT(chi2_sf(1000.0, 1.0), 1e-100);
  EXPECT_THROW(chi2_sf(1.0, 0.0), std::invalid_argument);
}

TEST(NormalTest, CdfKnownValues) {
  EXPECT_DOUBLE_EQ(normal_cdf(0.0), 0.5);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
}

TEST(NormalTest, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.9), 1.2815515655446004, 1e-9);
}

TEST(NormalTest, QuantileDomain) {
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(-0.5), std::invalid_argument);
}

}  // namespace
}  // namespace gendpr::stats
