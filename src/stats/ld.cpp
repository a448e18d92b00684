#include "stats/ld.hpp"

#include <cmath>

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

double ld_p_value(const LdMoments& m) {
  if (m.n == 0) return 1.0;
  const double statistic = static_cast<double>(m.n) * ld_r2(m);
  return chi2_sf(statistic, 1.0);
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
