// Reference LD moments for tests: the five sums of one SNP pair read
// individual by individual from a GenotypeMatrix. Production code computes
// them from bit planes (`stats::compute_ld_moments(const BitPlanes&, ...)`);
// tests compare the planes, the cohort generator and the federation against
// sums made here.
#pragma once

#include <cstdint>

#include "genome/genotype.hpp"
#include "stats/ld.hpp"

namespace gendpr::stats {

/// Moments of the pair (snp_x, snp_y) over all individuals of `genotypes`.
inline LdMoments compute_ld_moments(const genome::GenotypeMatrix& genotypes,
                             std::uint32_t snp_x, std::uint32_t snp_y) {
  LdMoments m;
  m.n = genotypes.num_individuals();
  for (std::size_t i = 0; i < genotypes.num_individuals(); ++i) {
    const double x = genotypes.get(i, snp_x) ? 1.0 : 0.0;
    const double y = genotypes.get(i, snp_y) ? 1.0 : 0.0;
    m.mu_x += x;
    m.mu_y += y;
    m.mu_xy += x * y;
    m.mu_x2 += x * x;
    m.mu_y2 += y * y;
  }
  return m;
}


}  // namespace gendpr::stats
