// Central oracle for the collusion-tolerant sweep (§5.6).
//
// Recomputes what a federated study with f > 0 must release, from pooled
// genotypes, without the Coordinator. Every honest subset is evaluated as a
// centralized SecureGenome run over its members' case slices plus the
// reference panel, and the per-subset survivor sets are intersected:
//
//   L'     = ∩ over the MAF combinations of maf_filter(pooled counts)
//   L''    = ∩ over the LD combinations of greedy_ld_prune(L') ranked by the
//            subset's chi² and linked by scalar per-individual moments
//   L_safe = ∩ over the LD combinations of the LR matrix selection over L'';
//            final_power is the largest per-subset residual power.
//
// It shares only the statistical primitives with the federation: no bit
// planes, no moment cache, no per-GDO count vectors, no plane selection.
// A sweep that skips, repeats or misfolds a combination disagrees with it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "gendpr/config.hpp"
#include "genome/genotype.hpp"
#include "ld_reference.hpp"
#include "lr_reference.hpp"
#include "stats/association.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::core::oracle {

struct CollusionOracleInput {
  /// Case genotypes per GDO, indexed by GDO.
  std::vector<genome::GenotypeMatrix> case_slices;
  genome::GenotypeMatrix reference;
  /// Honest subsets live when the MAF phase ran (ascending GDO ids).
  std::vector<std::vector<std::uint32_t>> maf_combinations;
  /// Honest subsets still live after the LD phase; the LR phase runs over
  /// the same set.
  std::vector<std::vector<std::uint32_t>> ld_combinations;
  StudyConfig config;
};

struct CollusionOracleResult {
  std::vector<std::uint32_t> l_prime;
  std::vector<std::uint32_t> l_double_prime;
  std::vector<std::uint32_t> l_safe;
  double final_power = 0.0;
};

/// Every subset of {0, .., num_gdos - 1} with `size` members, each listed
/// in ascending order.
inline std::vector<std::vector<std::uint32_t>> subsets_of_size(
    std::uint32_t num_gdos, std::uint32_t size) {
  std::vector<std::vector<std::uint32_t>> subsets;
  for (std::uint32_t mask = 0; mask < (1u << num_gdos); ++mask) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t g = 0; g < num_gdos; ++g) {
      if ((mask >> g) & 1u) members.push_back(g);
    }
    if (members.size() == size) subsets.push_back(std::move(members));
  }
  return subsets;
}

namespace detail {

/// The subset's case genotypes stacked in ascending GDO order.
inline genome::GenotypeMatrix pooled_cases(
    const std::vector<genome::GenotypeMatrix>& slices,
    const std::vector<std::uint32_t>& members) {
  std::size_t rows = 0;
  for (std::uint32_t g : members) rows += slices[g].num_individuals();
  const std::size_t snps = slices[members.front()].num_snps();
  genome::GenotypeMatrix pooled(rows, snps);
  std::size_t row = 0;
  for (std::uint32_t g : members) {
    for (std::size_t n = 0; n < slices[g].num_individuals(); ++n, ++row) {
      for (std::size_t l = 0; l < snps; ++l) {
        pooled.set(row, l, slices[g].get(n, l));
      }
    }
  }
  return pooled;
}

inline std::vector<std::uint32_t> intersect_all(
    const std::vector<std::vector<std::uint32_t>>& lists) {
  std::vector<std::uint32_t> result = lists.front();
  for (const auto& list : lists) {
    std::vector<std::uint32_t> next;
    std::set_intersection(result.begin(), result.end(), list.begin(),
                          list.end(), std::back_inserter(next));
    result = std::move(next);
  }
  return result;
}

inline std::vector<double> frequencies(const genome::GenotypeMatrix& genotypes,
                                       const std::vector<std::uint32_t>& snps) {
  const std::vector<std::uint32_t> counts = genotypes.allele_counts();
  const auto n = static_cast<double>(genotypes.num_individuals());
  std::vector<double> freq;
  for (std::uint32_t l : snps) {
    freq.push_back(genotypes.num_individuals() == 0
                       ? 0.0
                       : static_cast<double>(counts[l]) / n);
  }
  return freq;
}

}  // namespace detail

inline CollusionOracleResult collusion_oracle(
    const CollusionOracleInput& input) {
  const genome::GenotypeMatrix& reference = input.reference;
  const std::uint64_t n_ref = reference.num_individuals();
  const std::vector<std::uint32_t> ref_counts = reference.allele_counts();
  CollusionOracleResult result;

  std::vector<std::vector<std::uint32_t>> maf_lists;
  for (const auto& members : input.maf_combinations) {
    const genome::GenotypeMatrix cases =
        detail::pooled_cases(input.case_slices, members);
    const std::vector<std::uint32_t> case_counts = cases.allele_counts();
    std::vector<double> maf;
    for (std::size_t l = 0; l < case_counts.size(); ++l) {
      maf.push_back(stats::minor_allele_frequency(
          case_counts[l] + ref_counts[l], cases.num_individuals() + n_ref));
    }
    maf_lists.push_back(stats::maf_filter(maf, input.config.maf_cutoff));
  }
  result.l_prime = detail::intersect_all(maf_lists);

  std::vector<genome::GenotypeMatrix> ld_cases;
  std::vector<std::vector<std::uint32_t>> ld_lists;
  for (const auto& members : input.ld_combinations) {
    ld_cases.push_back(detail::pooled_cases(input.case_slices, members));
    const genome::GenotypeMatrix& cases = ld_cases.back();
    const std::vector<std::uint32_t> case_counts = cases.allele_counts();
    std::vector<double> p_values;
    for (std::size_t l = 0; l < case_counts.size(); ++l) {
      p_values.push_back(stats::chi2_p_value(stats::SinglewiseTable{
          case_counts[l], cases.num_individuals(), ref_counts[l], n_ref}));
    }
    auto pair_p_value = [&](std::uint32_t a, std::uint32_t b) {
      return stats::ld_p_value(stats::compute_ld_moments(cases, a, b) +
                               stats::compute_ld_moments(reference, a, b));
    };
    ld_lists.push_back(stats::greedy_ld_prune(
        result.l_prime, input.config.ld_cutoff, p_values, pair_p_value));
  }
  result.l_double_prime = detail::intersect_all(ld_lists);

  const std::vector<std::uint32_t>& snps = result.l_double_prime;
  const std::vector<double> ref_freq = detail::frequencies(reference, snps);
  stats::LrSelectionParams params;
  params.false_positive_rate = input.config.lr_false_positive_rate;
  params.power_threshold = input.config.lr_power_threshold;
  std::vector<std::vector<std::uint32_t>> safe_lists;
  for (const genome::GenotypeMatrix& cases : ld_cases) {
    const stats::LrWeights weights =
        stats::lr_weights(detail::frequencies(cases, snps), ref_freq);
    const stats::LrSelectionResult selection = stats::select_safe_snps(
        stats::reference::scalar_lr_matrix(cases, snps, weights),
        stats::reference::scalar_lr_matrix(reference, snps, weights), params);
    std::vector<std::uint32_t> safe;
    for (std::uint32_t column : selection.safe_columns) {
      safe.push_back(snps[column]);
    }
    safe_lists.push_back(std::move(safe));
    result.final_power = std::max(result.final_power, selection.final_power);
  }
  result.l_safe = detail::intersect_all(safe_lists);
  return result;
}

}  // namespace gendpr::core::oracle
