// Likelihood-ratio membership test (SecureGenome-style) and the safe-subset
// selection of the paper's Phase 3.
//
// The per-individual LR over a SNP set L (paper Eq. 1):
//   LR_n = sum_l [ x_{n,l} log(p̂_l/p_l) + (1 - x_{n,l}) log((1-p̂_l)/(1-p_l)) ]
// where p̂_l is the case frequency and p_l the reference frequency. The
// adversary scores a victim genome and flags membership when LR exceeds a
// threshold calibrated on the reference population at a tolerated
// false-positive rate. A SNP set is *safe* when the adversary's detection
// power (fraction of true case members flagged) stays below the configured
// threshold (defaults mirror §7: FPR 0.1, power limit 0.9).
//
// `LrMatrix` is the paper's artifact (one row per individual, one column per
// SNP), built from *global* frequencies; the centralized baseline still
// materializes it. Every cell is one of two per-column weights, so the
// federation ships indicator bits instead (`PlaneBlock`) and the leader
// selects on them directly. `select_safe_snps` runs the empirical subset
// search over either form: SNPs are admitted in ascending order of
// identifying power and a candidate is kept only if the resulting power
// stays below the limit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "genome/bitplanes.hpp"

namespace gendpr::stats {

/// Dense row-major matrix of per-individual, per-SNP LR contributions.
class LrMatrix {
 public:
  LrMatrix() = default;
  LrMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double at(std::size_t row, std::size_t col) const noexcept {
    return values_[row * cols_ + col];
  }
  double& at(std::size_t row, std::size_t col) noexcept {
    return values_[row * cols_ + col];
  }

  const std::vector<double>& values() const noexcept { return values_; }
  std::vector<double>& values() noexcept { return values_; }

  bool operator==(const LrMatrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> values_;
};

/// Per-SNP LR weights for x=1 and x=0 given case and reference frequencies.
struct LrWeights {
  std::vector<double> when_minor;  // log(p̂/p)
  std::vector<double> when_major;  // log((1-p̂)/(1-p))
};

/// Computes the weights, clamping frequencies into [freq_floor, 1-freq_floor]
/// so rare/fixed SNPs do not produce infinities.
LrWeights lr_weights(const std::vector<double>& case_freq,
                     const std::vector<double>& reference_freq,
                     double freq_floor = 1e-6);

/// Builds the LR matrix of `planes` restricted to `snps` (paper Fig. 4
/// step 2), with weight column i for snps[i]. Reads one plane word per 64
/// individuals and writes rows contiguously; each cell is one of column i's
/// two weight values.
LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights);

/// One population's LR indicator bits over a selection's columns: bit r of
/// column i (word r / 64, bit r % 64 of `columns[i]`) is 1 when individual r
/// carries the minor allele at that SNP, so its LR-matrix cell is
/// `when_minor[i]`, else `when_major[i]`. Each column holds ceil(rows / 64)
/// words. The pointers alias storage the caller keeps alive.
struct PlaneBlock {
  std::size_t rows = 0;
  std::vector<const std::uint64_t*> columns;
};

/// The block of `planes` restricted to `snps` (column i is plane snps[i]).
PlaneBlock plane_block(const genome::BitPlanes& planes,
                       const std::vector<std::uint32_t>& snps);

struct LrSelectionParams {
  double false_positive_rate = 0.1;  // beta in §7
  double power_threshold = 0.9;      // identification-power limit in §7
};

struct LrSelectionResult {
  /// Column indices (into the LR matrices) retained as safe.
  std::vector<std::uint32_t> safe_columns;
  /// Adversary detection power over the final safe set.
  double final_power = 0.0;
  /// LR threshold calibrated on the reference at the configured FPR.
  double final_threshold = 0.0;
};

/// Empirical safe-subset search over merged case and reference LR matrices
/// (they must have equal column counts). Deterministic: depends only on the
/// multiset of rows, so any GDO concatenation order yields the same result.
/// Each candidate updates per-row running sums and takes the reference
/// quantile with nth_element. `pool` (optional) parallelises the per-column
/// gap pass and the per-candidate score updates; every per-column and
/// per-row accumulation keeps its serial order, so the selection is
/// identical with or without a pool. Must not be the pool currently running
/// this call (no nesting).
LrSelectionResult select_safe_snps(const LrMatrix& case_lr,
                                   const LrMatrix& reference_lr,
                                   const LrSelectionParams& params,
                                   common::ThreadPool* pool = nullptr);

/// The same search driven from indicator bits and one weight pair per
/// column instead of materialized matrices. `case_blocks` are the case
/// populations in merge order (ascending GDO order in the protocol); every
/// block, and `reference`, has `weights.when_minor.size()` columns, and the
/// weights must be finite (lr_weights clamps the frequencies), because the
/// quantile bracket below is rounded arithmetic on them and inf - inf is a
/// NaN; a mismatch or a non-finite weight throws std::invalid_argument.
/// Scores stay in row order. Each candidate is one pass per population of
/// the dispatched `sweep_scores` kernel (genome/kernels): it rolls back a
/// rejected predecessor, adds `bit ? when_minor : when_major`, counts the
/// rows outside a bracket that provably holds the new threshold and
/// collects the rows inside it, so nth_element runs on that band only.
/// Every score still sees the adds and rollback subtractions in the matrix
/// overload's order, so gap, threshold, power and the safe set are
/// bit-identical to `select_safe_snps` over the concatenated
/// `build_lr_matrix` matrices (property-tested) under every kernel backend.
/// `pool` (optional) parallelises only the gap pass here, whose per-column
/// sums are the `column_sums` kernel; the candidate loop is serial. No
/// nesting, as in the matrix overload.
LrSelectionResult select_safe_snps(const std::vector<PlaneBlock>& case_blocks,
                                   const PlaneBlock& reference,
                                   const LrWeights& weights,
                                   const LrSelectionParams& params,
                                   common::ThreadPool* pool = nullptr);

/// Detection power of the adversary for fixed per-individual LR scores:
/// threshold = (1 - fpr) quantile of reference scores; power = fraction of
/// case scores strictly above it. Exposed for tests and the membership
/// attack example.
double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out);

/// Same, but reuses `scratch` for the quantile's partial sort instead of
/// allocating a reference-sized vector per call: the matrix overload of
/// `select_safe_snps` calls this once per candidate SNP.
double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out,
                       std::vector<double>& scratch);

}  // namespace gendpr::stats
