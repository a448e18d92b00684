// Membership-inference attack statistics from the literature GenDPR builds
// on (§2.2 / §3.2):
//
//   * Homer et al. 2008 - the original distance-based statistic
//     D(Y) = sum_l |y_l - p_ref,l| - |y_l - p_case,l|,
//     where y_l is the victim's allele value and p the published
//     frequencies. Positive D suggests membership in the case pool.
//   * Sankararaman et al. 2009 (SecureGenome) - the likelihood-ratio test
//     (stats/lr_test.hpp), shown there to dominate Homer's statistic. The
//     comparison bench (bench_ablation_attacks) reproduces that dominance,
//     which is why GenDPR assesses releases with the LR-test.
//
// These are attacker-side tools: examples and benches use them to measure
// how exposed a release is; the protocol itself only needs lr_test.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "genome/genotype.hpp"

namespace gendpr::stats {

/// Homer scores for every individual of `population` over `released` SNPs.
std::vector<double> homer_scores(const genome::GenotypeMatrix& population,
                                 const std::vector<std::uint32_t>& released,
                                 const std::vector<double>& case_freq,
                                 const std::vector<double>& reference_freq);

/// LR scores (Eq. 1 totals) for every individual of `population`; the
/// LR-test analogue of homer_scores, for power comparisons.
std::vector<double> lr_scores(const genome::GenotypeMatrix& population,
                              const std::vector<std::uint32_t>& released,
                              const std::vector<double>& case_freq,
                              const std::vector<double>& reference_freq);

/// End-to-end attack evaluation: detection power at `false_positive_rate`
/// of a score-based membership attack, given scores of true members (case)
/// and non-members (reference).
struct AttackPower {
  double power = 0.0;      // true-positive rate at the calibrated threshold
  double threshold = 0.0;  // (1 - fpr) quantile of non-member scores
};
AttackPower evaluate_attack(const std::vector<double>& member_scores,
                            const std::vector<double>& nonmember_scores,
                            double false_positive_rate);

}  // namespace gendpr::stats
