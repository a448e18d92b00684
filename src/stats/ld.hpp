// Linkage disequilibrium from distributable correlation moments.
//
// GenDPR's Phase 2 cannot pool genotypes, so each GDO ships the five sums of
// §5.4 per SNP pair (mu_l, mu_{l+1}, mu_{l,l+1}, mu_{l^2}, mu_{(l+1)^2}) plus
// its population size; moments are additive, so the leader aggregates them
// and evaluates the squared Pearson correlation r^2 exactly as a centralized
// holder of all genomes would. Significance: N * r^2 is asymptotically
// chi-squared with 1 dof, giving the p-value compared against the paper's
// 1e-5 LD cut-off (small p-value = dependent pair).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/coro.hpp"
#include "genome/bitplanes.hpp"
#include "genome/genotype.hpp"

namespace gendpr::stats {

/// Additive correlation moments for one SNP pair over one population.
struct LdMoments {
  double mu_x = 0;   // sum of genotypes at the first SNP
  double mu_y = 0;   // sum at the second SNP
  double mu_xy = 0;  // sum of products
  double mu_x2 = 0;  // sum of squares at the first SNP
  double mu_y2 = 0;  // sum of squares at the second SNP
  std::uint64_t n = 0;

  LdMoments& operator+=(const LdMoments& other) noexcept;
  friend LdMoments operator+(LdMoments a, const LdMoments& b) noexcept {
    a += b;
    return a;
  }
};

/// Moments of the pair (snp_x, snp_y) over all individuals of `genotypes`.
LdMoments compute_ld_moments(const genome::GenotypeMatrix& genotypes,
                             std::uint32_t snp_x, std::uint32_t snp_y);

/// Word-parallel moments from SNP-major bit planes. For binary genotypes
/// x = x^2, so mu_x = mu_x2 = count_x (cached per plane) and the only term
/// needing a sweep is mu_xy = popcount(plane_x & plane_y). Sums of 0/1
/// values are exact in double, so the result is bit-identical to the scalar
/// per-individual loop.
LdMoments compute_ld_moments(const genome::BitPlanes& planes,
                             std::uint32_t snp_x, std::uint32_t snp_y);

/// Squared Pearson correlation from aggregated moments; 0 for degenerate
/// (constant) columns.
double ld_r2(const LdMoments& moments);

/// P-value of the correlation (chi-squared approximation: n * r^2, 1 dof).
double ld_p_value(const LdMoments& moments);

/// Greedy LD pruning over an ordered SNP list (Algorithm 1 lines 28-57):
/// walks adjacent pairs; an independent pair (p-value > cutoff) keeps the
/// current SNP and advances; a dependent pair keeps only the better-ranked
/// SNP (smaller association p-value) and continues the scan from the next
/// position. `pair_p_value(a, b)` supplies the LD p-value of a pair and
/// abstracts who owns the genomes (local matrix or federated aggregation).
///
/// This is the canonical (sans-IO) form: `pair_p_value` returns a
/// `Task<double>`, so a federated caller may suspend mid-walk while member
/// moments are in flight. The blocking wrapper below adapts synchronous
/// p-value callbacks onto the same walk.
template <typename AsyncPairPValueFn>
common::Task<std::vector<std::uint32_t>> greedy_ld_prune_async(
    std::vector<std::uint32_t> snps, double ld_cutoff,
    std::vector<double> association_p_values, AsyncPairPValueFn pair_p_value) {
  std::vector<std::uint32_t> retained;
  if (snps.empty()) co_return retained;
  if (snps.size() == 1) co_return snps;

  std::uint32_t current = snps[0];
  for (std::size_t i = 1; i < snps.size(); ++i) {
    const std::uint32_t next = snps[i];
    const double p = co_await pair_p_value(current, next);
    if (p > ld_cutoff) {
      // Independent: current survives; next becomes the comparison anchor.
      retained.push_back(current);
      current = next;
    } else {
      // Dependent: keep only the better-ranked of the two.
      current = (association_p_values[next] < association_p_values[current])
                    ? next
                    : current;
    }
  }
  retained.push_back(current);
  co_return retained;
}

/// Blocking-callback adapter over greedy_ld_prune_async (local baselines and
/// property tests; nothing in the adapted walk ever suspends).
template <typename PairPValueFn>
std::vector<std::uint32_t> greedy_ld_prune(
    const std::vector<std::uint32_t>& snps, double ld_cutoff,
    const std::vector<double>& association_p_values,
    PairPValueFn&& pair_p_value) {
  return common::run_sync(greedy_ld_prune_async(
      snps, ld_cutoff, association_p_values,
      [&pair_p_value](std::uint32_t a,
                      std::uint32_t b) -> common::Task<double> {
        co_return pair_p_value(a, b);
      }));
}

}  // namespace gendpr::stats
