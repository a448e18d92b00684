// Pairwise contingency tables (paper Table 2b) and the r^2 linkage
// disequilibrium statistic in the paper's own formulation:
//
//   r^2 = (C00*C11 - C01*C10)^2 / (C0-*C1-*C-0*C-1)
//
// where C_ab counts individuals carrying allele a at the first SNP and b at
// the second. For binary dominant-encoded genotypes this is algebraically
// identical to the moments-based squared Pearson correlation in ld.hpp
// (contingency_test.cpp proves the equivalence numerically). GenDPR's wire
// protocol ships the additive moments because they aggregate across GDOs, so
// no shipped binary builds these tables; they stay here, next to the test,
// for readers following the paper's notation.
#pragma once

#include <cstdint>

#include "genome/genotype.hpp"
#include "stats/special.hpp"

namespace gendpr::stats {

/// Pairwise table of two SNPs over one population (paper Table 2b).
struct PairwiseTable {
  std::uint64_t c00 = 0;  // major/major
  std::uint64_t c01 = 0;  // major at l1, minor at l2
  std::uint64_t c10 = 0;  // minor at l1, major at l2
  std::uint64_t c11 = 0;  // minor/minor

  std::uint64_t row0() const noexcept { return c00 + c01; }  // C_0-
  std::uint64_t row1() const noexcept { return c10 + c11; }  // C_1-
  std::uint64_t col0() const noexcept { return c00 + c10; }  // C_-0
  std::uint64_t col1() const noexcept { return c01 + c11; }  // C_-1
  std::uint64_t total() const noexcept { return c00 + c01 + c10 + c11; }

  PairwiseTable& operator+=(const PairwiseTable& other) noexcept {
    c00 += other.c00;
    c01 += other.c01;
    c10 += other.c10;
    c11 += other.c11;
    return *this;
  }
};

inline PairwiseTable pairwise_table(const genome::GenotypeMatrix& genotypes,
                             std::uint32_t snp_a, std::uint32_t snp_b) {
  PairwiseTable table;
  for (std::size_t n = 0; n < genotypes.num_individuals(); ++n) {
    const bool a = genotypes.get(n, snp_a);
    const bool b = genotypes.get(n, snp_b);
    if (!a && !b) {
      ++table.c00;
    } else if (!a && b) {
      ++table.c01;
    } else if (a && !b) {
      ++table.c10;
    } else {
      ++table.c11;
    }
  }
  return table;
}

inline double pairwise_r2(const PairwiseTable& table) {
  const double row0 = static_cast<double>(table.row0());
  const double row1 = static_cast<double>(table.row1());
  const double col0 = static_cast<double>(table.col0());
  const double col1 = static_cast<double>(table.col1());
  if (row0 == 0.0 || row1 == 0.0 || col0 == 0.0 || col1 == 0.0) return 0.0;
  const double det = static_cast<double>(table.c00) *
                         static_cast<double>(table.c11) -
                     static_cast<double>(table.c01) *
                         static_cast<double>(table.c10);
  return det * det / (row0 * row1 * col0 * col1);
}

inline double pairwise_p_value(const PairwiseTable& table) {
  const std::uint64_t n = table.total();
  if (n == 0) return 1.0;
  return chi2_sf(static_cast<double>(n) * pairwise_r2(table), 1.0);
}

}  // namespace gendpr::stats
