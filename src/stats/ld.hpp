// Linkage disequilibrium from distributable correlation moments.
//
// GenDPR's Phase 2 cannot pool genotypes, so it works on the five sums of
// §5.4 per SNP pair (mu_l, mu_{l+1}, mu_{l,l+1}, mu_{l^2}, mu_{(l+1)^2}) plus
// the population size per GDO; moments are additive, so the leader
// aggregates them and evaluates the squared Pearson correlation r^2 exactly
// as a centralized holder of all genomes would. For binary genotypes a
// GDO's sums follow from its allele counts and one co-occurrence count per
// pair, which is all a member sends. Significance: N * r^2 is asymptotically
// chi-squared with 1 dof, giving the p-value compared against the paper's
// 1e-5 LD cut-off (small p-value = dependent pair).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "genome/bitplanes.hpp"
#include "genome/genotype.hpp"
#include "stats/special.hpp"

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

/// The correlation's chi-squared statistic n * r^2 (0 for an empty
/// population).
double ld_statistic(const LdMoments& moments);

/// P-value of the correlation (chi-squared approximation: n * r^2, 1 dof).
double ld_p_value(const LdMoments& moments);

/// The LD walk's test `chi2_sf(x, 1) > cutoff` ("independent") for a
/// statistic x = n * r^2, decided from x itself wherever that is provably
/// the computed function's answer. Built once per cutoff: a bisection on
/// the computed chi2_sf finds the critical statistic x_c, and the bracket
/// [lower(), upper()] lies 0.1% either side of it. Below the bracket the pair
/// is independent, above it dependent; inside it, and for NaN, chi2_sf is
/// evaluated exactly as ld_p_value does. Each edge is kept only when the
/// error bound of chi2_sf shows it sound (DESIGN.md §3.3); otherwise it
/// moves out to -inf (lower) or +inf (upper) and those statistics take the
/// exact path, as every statistic does for a cutoff outside (0, 1).
class LdCutoff {
 public:
  explicit LdCutoff(double cutoff);

  struct Decision {
    bool independent;
    bool evaluated;  // chi2_sf ran (the statistic was inside the bracket)
  };
  Decision decide(double statistic) const {
    if (statistic < lower_) return {true, false};
    if (statistic > upper_) return {false, false};
    return {chi2_sf(statistic, 1.0) > cutoff_, true};
  }

  double lower() const noexcept { return lower_; }
  double upper() const noexcept { return upper_; }

 private:
  double cutoff_;
  double lower_;
  double upper_;
};

/// One greedy LD walk (Algorithm 1 lines 28-57) as explicit state over the
/// ranks of an ordered SNP list: the rank of the current comparison anchor,
/// the next rank to compare against it, and the ranks retained so far. Each
/// step decides one adjacent-in-walk pair: an independent pair (LD p-value
/// > cutoff) keeps the anchor and makes the next SNP the anchor; a dependent
/// pair keeps only the better-ranked SNP (smaller association p-value) as
/// the anchor. The state advances one rank per step, so a caller may move it
/// over any rank range and suspend between steps (the federated leader walks
/// every combination through one L' tile at a time).
class LdWalk {
 public:
  /// The next pair to decide is (anchor(), next()), as ranks.
  std::uint32_t anchor() const noexcept { return anchor_; }
  std::uint32_t next() const noexcept { return next_; }

  /// Decides the pair (anchor(), next()) from its LD test outcome and the
  /// association p-values of its two SNPs, then moves to the next rank.
  void step(bool independent, double anchor_association_p,
            double next_association_p) {
    if (independent) {
      // Independent: the anchor survives; next becomes the anchor.
      retained_.push_back(anchor_);
      anchor_ = next_;
    } else if (next_association_p < anchor_association_p) {
      // Dependent: keep only the better-ranked of the two.
      anchor_ = next_;
    }
    ++next_;
  }

  /// The retained SNPs once every rank of `snps` was stepped.
  std::vector<std::uint32_t> survivors(
      const std::vector<std::uint32_t>& snps) const;

 private:
  std::uint32_t anchor_ = 0;
  std::uint32_t next_ = 1;
  std::vector<std::uint32_t> retained_;  // ranks
};

/// Greedy LD pruning over an ordered SNP list with a blocking p-value
/// callback: `pair_p_value(a, b)` supplies the LD p-value of a pair and
/// abstracts who owns the genomes (local baselines, oracles, property
/// tests). Runs the same LdWalk the federated leader drives tile by tile,
/// on the exact p-value of every pair (the leader decides from LdCutoff).
template <typename PairPValueFn>
std::vector<std::uint32_t> greedy_ld_prune(
    const std::vector<std::uint32_t>& snps, double ld_cutoff,
    const std::vector<double>& association_p_values,
    PairPValueFn&& pair_p_value) {
  LdWalk walk;
  while (walk.next() < snps.size()) {
    const std::uint32_t a = snps[walk.anchor()];
    const std::uint32_t b = snps[walk.next()];
    walk.step(pair_p_value(a, b) > ld_cutoff, association_p_values[a],
              association_p_values[b]);
  }
  return walk.survivors(snps);
}

}  // namespace gendpr::stats
