#include "stats/ld.hpp"

#include <cmath>
#include <limits>

#include "stats/special.hpp"

namespace gendpr::stats {

LdMoments& LdMoments::operator+=(const LdMoments& other) noexcept {
  mu_x += other.mu_x;
  mu_y += other.mu_y;
  mu_xy += other.mu_xy;
  mu_x2 += other.mu_x2;
  mu_y2 += other.mu_y2;
  n += other.n;
  return *this;
}

LdMoments compute_ld_moments(const genome::BitPlanes& planes,
                             std::uint32_t snp_x, std::uint32_t snp_y) {
  LdMoments m;
  m.n = planes.num_individuals();
  const double count_x = planes.allele_count(snp_x);
  const double count_y = planes.allele_count(snp_y);
  m.mu_x = count_x;
  m.mu_x2 = count_x;
  m.mu_y = count_y;
  m.mu_y2 = count_y;
  m.mu_xy = planes.pair_count(snp_x, snp_y);
  return m;
}

double ld_r2(const LdMoments& m) {
  if (m.n == 0) return 0.0;
  const double n = static_cast<double>(m.n);
  const double cov = n * m.mu_xy - m.mu_x * m.mu_y;
  const double var_x = n * m.mu_x2 - m.mu_x * m.mu_x;
  const double var_y = n * m.mu_y2 - m.mu_y * m.mu_y;
  if (var_x <= 0.0 || var_y <= 0.0) return 0.0;
  return (cov * cov) / (var_x * var_y);
}

double ld_statistic(const LdMoments& m) {
  return static_cast<double>(m.n) * ld_r2(m);
}

double ld_p_value(const LdMoments& m) {
  return chi2_sf(ld_statistic(m), 1.0);
}

namespace {

// Bounds on the computed chi2_sf(x, 1) against the true erfc(sqrt(x / 2)):
// |computed - true| <= kRelativeError * true + kAbsoluteError for every
// x > 0 (DESIGN.md §3.3 derives about 5e-13 for the relative term; the
// bound used is 2,000 times that).
constexpr double kRelativeError = 1e-9;
constexpr double kAbsoluteError = 1e-310;
// The bracket's half-width, relative to the critical statistic.
constexpr double kBracketWidth = 1e-3;
// chi2_sf underflows to 0 well below this statistic (exp(-1000)).
constexpr double kMaxStatistic = 2000.0;

}  // namespace

LdCutoff::LdCutoff(double cutoff)
    : cutoff_(cutoff),
      lower_(-std::numeric_limits<double>::infinity()),
      upper_(std::numeric_limits<double>::infinity()) {
  if (!(cutoff > 0.0 && cutoff < 1.0)) return;
  // chi2_sf(lo) > cutoff >= chi2_sf(hi) throughout (chi2_sf(0) = 1).
  double lo = 0.0;
  double hi = kMaxStatistic;
  if (chi2_sf(hi, 1.0) > cutoff) return;
  while (hi - lo > hi * 1e-9) {
    const double mid = lo + (hi - lo) / 2;
    if (mid <= lo || mid >= hi) break;
    (chi2_sf(mid, 1.0) > cutoff ? lo : hi) = mid;
  }
  const double e = kRelativeError;
  const double eta = kAbsoluteError;
  // Below `below`, the true function exceeds its value there, so the
  // computed one exceeds (1 - e)(chi2_sf(below) - eta)/(1 + e) - eta.
  const double below = hi * (1.0 - kBracketWidth);
  if ((1.0 - e) * (chi2_sf(below, 1.0) - eta) / (1.0 + e) - eta > cutoff) {
    lower_ = below;
  }
  // Above `above`, symmetrically, the computed function stays at or under
  // (1 + e)(chi2_sf(above) + eta)/(1 - e) + eta.
  const double above = hi * (1.0 + kBracketWidth);
  if ((1.0 + e) * (chi2_sf(above, 1.0) + eta) / (1.0 - e) + eta <= cutoff) {
    upper_ = above;
  }
}

std::vector<std::uint32_t> LdWalk::survivors(
    const std::vector<std::uint32_t>& snps) const {
  std::vector<std::uint32_t> kept;
  if (snps.empty()) return kept;
  kept.reserve(retained_.size() + 1);
  for (std::uint32_t rank : retained_) kept.push_back(snps[rank]);
  kept.push_back(snps[anchor_]);
  return kept;
}

}  // namespace gendpr::stats
