// Single-SNP association statistics: contingency tables, chi-squared tests,
// minor allele frequencies, and SNP ranking.
//
// Mirrors §3 of the paper. Two chi-squared variants are provided: the
// standard Pearson test on the 2x2 singlewise contingency table (Table 2a),
// used for ranking SNPs ("most ranked" = smallest p-value), and the
// simplified statistic the paper prints in §3.1
// (chi2 = (N_case - N_control)^2 / N_control), kept for reference.
#pragma once

#include <cstdint>
#include <vector>

namespace gendpr::stats {

/// Singlewise contingency table (paper Table 2a) for one SNP.
struct SinglewiseTable {
  std::uint64_t case_minor = 0;    // N^case_1
  std::uint64_t case_total = 0;    // N^case
  std::uint64_t control_minor = 0; // N^control_1
  std::uint64_t control_total = 0; // N^control

  std::uint64_t case_major() const noexcept { return case_total - case_minor; }
  std::uint64_t control_major() const noexcept {
    return control_total - control_minor;
  }
  std::uint64_t total() const noexcept { return case_total + control_total; }
};

/// Pearson chi-squared statistic of the 2x2 table (1 degree of freedom).
/// Returns 0 for degenerate tables (empty margins).
double chi2_statistic(const SinglewiseTable& table);

/// P-value of the Pearson statistic (chi-squared survival, 1 dof).
double chi2_p_value(const SinglewiseTable& table);

/// Minor allele frequency from aggregate counts: total minor-allele count
/// over total allele observations.
double minor_allele_frequency(std::uint64_t minor_count,
                              std::uint64_t total_count);

/// Indices of SNPs whose MAF is >= cutoff (the paper's Phase 1 filter keeps
/// these; MAF below the cutoff marks rare, identifying variants).
std::vector<std::uint32_t> maf_filter(const std::vector<double>& maf,
                                      double cutoff);

}  // namespace gendpr::stats
