#include "stats/association.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/special.hpp"

namespace gendpr::stats {

double chi2_statistic(const SinglewiseTable& table) {
  const double n = static_cast<double>(table.total());
  if (n == 0.0) return 0.0;
  const double row_minor =
      static_cast<double>(table.case_minor + table.control_minor);
  const double row_major = n - row_minor;
  const double col_case = static_cast<double>(table.case_total);
  const double col_control = static_cast<double>(table.control_total);
  if (row_minor == 0.0 || row_major == 0.0 || col_case == 0.0 ||
      col_control == 0.0) {
    return 0.0;  // degenerate margin: no information
  }
  // Pearson chi2 for a 2x2 table: n (ad - bc)^2 / (row1 row2 col1 col2).
  const double a = static_cast<double>(table.case_minor);
  const double b = static_cast<double>(table.control_minor);
  const double c = static_cast<double>(table.case_major());
  const double d = static_cast<double>(table.control_major());
  const double det = a * d - b * c;
  return n * det * det / (row_minor * row_major * col_case * col_control);
}

double chi2_p_value(const SinglewiseTable& table) {
  return chi2_sf(chi2_statistic(table), 1.0);
}

double minor_allele_frequency(std::uint64_t minor_count,
                              std::uint64_t total_count) {
  if (total_count == 0) {
    throw std::invalid_argument("minor_allele_frequency: empty population");
  }
  return static_cast<double>(minor_count) / static_cast<double>(total_count);
}

std::vector<std::uint32_t> maf_filter(const std::vector<double>& maf,
                                      double cutoff) {
  std::vector<std::uint32_t> retained;
  retained.reserve(maf.size());
  for (std::size_t l = 0; l < maf.size(); ++l) {
    if (maf[l] >= cutoff) retained.push_back(static_cast<std::uint32_t>(l));
  }
  return retained;
}

}  // namespace gendpr::stats
