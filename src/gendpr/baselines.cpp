#include "gendpr/baselines.hpp"

#include <algorithm>

#include "common/stopwatch.hpp"
#include "gendpr/trusted.hpp"
#include "genome/bitplanes.hpp"
#include "stats/association.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::core {

using common::Stopwatch;

namespace {

/// Chi-squared association p-values of case counts against the reference.
std::vector<double> association_p_values(
    const std::vector<std::uint32_t>& case_counts, std::uint64_t n_case,
    const std::vector<std::uint32_t>& ref_counts, std::uint64_t n_ref) {
  std::vector<double> p_values(case_counts.size(), 1.0);
  for (std::size_t l = 0; l < case_counts.size(); ++l) {
    const stats::SinglewiseTable table{case_counts[l], n_case, ref_counts[l],
                                       n_ref};
    p_values[l] = stats::chi2_p_value(table);
  }
  return p_values;
}

std::vector<double> freq_of(const std::vector<std::uint32_t>& counts,
                            const std::vector<std::uint32_t>& snps,
                            std::uint64_t n) {
  std::vector<double> freq(snps.size(), 0.0);
  for (std::size_t i = 0; i < snps.size(); ++i) {
    freq[i] = n == 0 ? 0.0
                     : static_cast<double>(counts[snps[i]]) /
                           static_cast<double>(n);
  }
  return freq;
}

}  // namespace

BaselineResult run_centralized(const genome::Cohort& cohort,
                               const StudyConfig& config) {
  BaselineResult result;
  const Stopwatch total_watch;

  // "Data Aggregation": the centralized enclave ingests every genome and
  // builds the SNP-major planes its statistical kernels run on.
  Stopwatch aggregation_watch;
  const genome::BitPlanes case_planes(cohort.cases);
  const genome::BitPlanes ref_planes(cohort.controls);
  result.timings.aggregation_ms = aggregation_watch.elapsed_ms();

  const std::uint64_t n_case = case_planes.num_individuals();
  const std::uint64_t n_ref = ref_planes.num_individuals();

  // "Indexing/Sorting/AlleleFreq.": counts, MAF filter, association ranking.
  Stopwatch indexing_watch;
  const std::vector<std::uint32_t> case_counts = case_planes.allele_counts();
  const std::vector<std::uint32_t> ref_counts = ref_planes.allele_counts();
  std::vector<double> maf(case_counts.size(), 0.0);
  for (std::size_t l = 0; l < case_counts.size(); ++l) {
    maf[l] = stats::minor_allele_frequency(case_counts[l] + ref_counts[l],
                                           n_case + n_ref);
  }
  result.outcome.l_prime = stats::maf_filter(maf, config.maf_cutoff);
  const std::vector<double> p_values =
      association_p_values(case_counts, n_case, ref_counts, n_ref);
  result.timings.indexing_ms = indexing_watch.elapsed_ms();

  // "LD analysis": greedy pruning with pooled (case + reference) moments.
  Stopwatch ld_watch;
  auto pair_p_value = [&](std::uint32_t a, std::uint32_t b) {
    stats::LdMoments moments = stats::compute_ld_moments(case_planes, a, b);
    moments += stats::compute_ld_moments(ref_planes, a, b);
    return stats::ld_p_value(moments);
  };
  result.outcome.l_double_prime = stats::greedy_ld_prune(
      result.outcome.l_prime, config.ld_cutoff, p_values, pair_p_value);
  result.timings.ld_ms = ld_watch.elapsed_ms();

  // "LR-test analysis".
  Stopwatch lr_watch;
  const std::vector<double> case_freq =
      freq_of(case_counts, result.outcome.l_double_prime, n_case);
  const std::vector<double> ref_freq =
      freq_of(ref_counts, result.outcome.l_double_prime, n_ref);
  const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
  const stats::LrMatrix case_lr = stats::build_lr_matrix(
      case_planes, result.outcome.l_double_prime, weights);
  const stats::LrMatrix ref_lr = stats::build_lr_matrix(
      ref_planes, result.outcome.l_double_prime, weights);
  stats::LrSelectionParams params;
  params.false_positive_rate = config.lr_false_positive_rate;
  params.power_threshold = config.lr_power_threshold;
  const stats::LrSelectionResult selection =
      stats::select_safe_snps(case_lr, ref_lr, params);
  result.outcome.l_safe.reserve(selection.safe_columns.size());
  for (std::uint32_t column : selection.safe_columns) {
    result.outcome.l_safe.push_back(result.outcome.l_double_prime[column]);
  }
  result.outcome.final_power = selection.final_power;
  result.timings.lr_ms = lr_watch.elapsed_ms();

  result.timings.total_ms = total_watch.elapsed_ms();
  return result;
}

BaselineResult run_naive_distributed(const genome::Cohort& cohort,
                                     const StudyConfig& config,
                                     std::uint32_t num_gdos) {
  BaselineResult result;
  const Stopwatch total_watch;

  const genome::BitPlanes ref_planes(cohort.controls);
  const std::uint64_t n_ref = ref_planes.num_individuals();
  const std::vector<std::uint32_t> ref_counts = ref_planes.allele_counts();

  std::vector<genome::BitPlanes> local_planes;
  local_planes.reserve(num_gdos);
  for (const auto& [begin, end] :
       genome::equal_partition(cohort.cases.num_individuals(), num_gdos)) {
    local_planes.emplace_back(cohort.cases, begin, end);
  }

  // MAF is still computed over aggregated counts - the paper observes the
  // naive scheme "is able to retain the same SNPs during the MAF evaluation".
  Stopwatch indexing_watch;
  std::vector<std::uint32_t> case_counts(cohort.cases.num_snps(), 0);
  for (const auto& local : local_planes) {
    for (std::size_t l = 0; l < case_counts.size(); ++l) {
      case_counts[l] += local.allele_count(l);
    }
  }
  const std::uint64_t n_case = cohort.cases.num_individuals();
  std::vector<double> maf(case_counts.size(), 0.0);
  for (std::size_t l = 0; l < case_counts.size(); ++l) {
    maf[l] = stats::minor_allele_frequency(case_counts[l] + ref_counts[l],
                                           n_case + n_ref);
  }
  result.outcome.l_prime = stats::maf_filter(maf, config.maf_cutoff);
  result.timings.indexing_ms = indexing_watch.elapsed_ms();

  // LD: every GDO prunes with *local* moments and *local* ranking, then the
  // coordinator intersects - the flawed scheme of Table 4's bold rows.
  Stopwatch ld_watch;
  std::vector<std::vector<std::uint32_t>> local_ld_lists;
  local_ld_lists.reserve(num_gdos);
  for (const auto& local : local_planes) {
    const std::vector<double> local_p_values = association_p_values(
        local.allele_counts(), local.num_individuals(), ref_counts, n_ref);
    auto pair_p_value = [&](std::uint32_t a, std::uint32_t b) {
      stats::LdMoments moments = stats::compute_ld_moments(local, a, b);
      moments += stats::compute_ld_moments(ref_planes, a, b);
      return stats::ld_p_value(moments);
    };
    local_ld_lists.push_back(stats::greedy_ld_prune(
        result.outcome.l_prime, config.ld_cutoff, local_p_values,
        pair_p_value));
  }
  result.outcome.l_double_prime = intersect_sorted(local_ld_lists);
  result.timings.ld_ms = ld_watch.elapsed_ms();

  // LR-test: per GDO with local frequencies, then intersect.
  Stopwatch lr_watch;
  const std::vector<double> ref_freq =
      freq_of(ref_counts, result.outcome.l_double_prime, n_ref);
  std::vector<std::vector<std::uint32_t>> local_safe_lists;
  local_safe_lists.reserve(num_gdos);
  double worst_power = 0.0;
  for (const auto& local : local_planes) {
    const std::vector<double> local_freq =
        freq_of(local.allele_counts(), result.outcome.l_double_prime,
                local.num_individuals());
    const stats::LrWeights weights = stats::lr_weights(local_freq, ref_freq);
    const stats::LrMatrix local_lr = stats::build_lr_matrix(
        local, result.outcome.l_double_prime, weights);
    const stats::LrMatrix ref_lr = stats::build_lr_matrix(
        ref_planes, result.outcome.l_double_prime, weights);
    stats::LrSelectionParams params;
    params.false_positive_rate = config.lr_false_positive_rate;
    params.power_threshold = config.lr_power_threshold;
    const stats::LrSelectionResult selection =
        stats::select_safe_snps(local_lr, ref_lr, params);
    std::vector<std::uint32_t> safe;
    safe.reserve(selection.safe_columns.size());
    for (std::uint32_t column : selection.safe_columns) {
      safe.push_back(result.outcome.l_double_prime[column]);
    }
    local_safe_lists.push_back(std::move(safe));
    worst_power = std::max(worst_power, selection.final_power);
  }
  result.outcome.l_safe = intersect_sorted(local_safe_lists);
  result.outcome.final_power = worst_power;
  result.timings.lr_ms = lr_watch.elapsed_ms();

  result.timings.total_ms = total_watch.elapsed_ms();
  return result;
}

}  // namespace gendpr::core
