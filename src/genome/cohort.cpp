#include "genome/cohort.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gendpr::genome {

namespace {

/// Shifts a frequency on the odds scale: p' = odds*p / (1 + (odds-1)*p).
double shift_odds(double p, double odds) noexcept {
  return odds * p / (1.0 + (odds - 1.0) * p);
}

/// Fills one population's genotype matrix given per-SNP frequencies and the
/// block-anchor LD structure.
void fill_population(GenotypeMatrix& matrix, const std::vector<double>& freq,
                     const CohortSpec& spec, common::Rng& rng) {
  const std::size_t num_snps = matrix.num_snps();
  for (std::size_t n = 0; n < matrix.num_individuals(); ++n) {
    bool anchor = false;
    for (std::size_t l = 0; l < num_snps; ++l) {
      const bool block_start = spec.ld_block_size == 0
                                   ? true
                                   : (l % spec.ld_block_size == 0);
      bool value;
      if (block_start) {
        value = rng.bernoulli(freq[l]);
        anchor = value;
      } else if (rng.bernoulli(spec.ld_copy_prob)) {
        value = anchor;  // copy the block anchor -> within-block LD
      } else {
        value = rng.bernoulli(freq[l]);
      }
      if (value) matrix.set(n, l, true);
    }
  }
}

}  // namespace

Cohort generate_cohort(const CohortSpec& spec) {
  if (spec.num_snps == 0) {
    throw std::invalid_argument("generate_cohort: num_snps must be > 0");
  }
  common::Rng rng(spec.seed);

  Cohort cohort;
  cohort.base_maf.resize(spec.num_snps);
  for (double& p : cohort.base_maf) {
    p = std::clamp(rng.beta(spec.maf_alpha, spec.maf_beta) * 0.5,
                   spec.maf_floor, 0.5);
  }

  // Choose associated SNPs without replacement.
  const std::size_t num_associated = static_cast<std::size_t>(std::floor(
      spec.associated_fraction * static_cast<double>(spec.num_snps)));
  const std::vector<std::size_t> perm = rng.permutation(spec.num_snps);
  cohort.associated_snps.assign(perm.begin(), perm.begin() + num_associated);
  std::sort(cohort.associated_snps.begin(), cohort.associated_snps.end());

  std::vector<double> case_freq = cohort.base_maf;
  for (std::uint32_t l : cohort.associated_snps) {
    case_freq[l] = shift_odds(case_freq[l], spec.effect_odds);
  }

  cohort.cases = GenotypeMatrix(spec.num_case, spec.num_snps);
  cohort.controls = GenotypeMatrix(spec.num_control, spec.num_snps);
  common::Rng case_rng = rng.fork();
  common::Rng control_rng = rng.fork();
  fill_population(cohort.cases, case_freq, spec, case_rng);
  fill_population(cohort.controls, cohort.base_maf, spec, control_rng);
  return cohort;
}

std::vector<std::pair<std::size_t, std::size_t>> equal_partition(
    std::size_t total, std::size_t parts) {
  if (parts == 0) {
    throw std::invalid_argument("equal_partition: parts must be > 0");
  }
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(parts);
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    ranges.emplace_back(begin, begin + size);
    begin += size;
  }
  return ranges;
}

}  // namespace gendpr::genome
