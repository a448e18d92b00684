#include "stats/special.hpp"

#include <math.h>  // lgamma_r

#include <cmath>
#include <limits>
#include <stdexcept>

namespace gendpr::stats {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-15;

/// ln Gamma(a) for a > 0. std::lgamma also stores the sign in the global
/// `signgam`, a data race once p-values run on several threads at once;
/// lgamma_r returns the same value and writes the sign to a local.
double log_gamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

/// P(a,x) by its power series; converges fast for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double term = sum;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Q(a,x) by Lentz's continued fraction; converges fast for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / kEpsilon;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::invalid_argument("regularized_gamma_p: domain error");
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double regularized_gamma_q(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::invalid_argument("regularized_gamma_q: domain error");
  }
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_continued_fraction(a, x);
}

double chi2_sf(double x, double k) {
  if (k <= 0.0) throw std::invalid_argument("chi2_sf: k must be > 0");
  if (x <= 0.0) return 1.0;
  return regularized_gamma_q(k / 2.0, x / 2.0);
}

}  // namespace gendpr::stats
