#include "stats/lr_test.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

namespace gendpr::stats {

void LrMatrix::append_rows(const LrMatrix& other) {
  if (rows_ == 0 && cols_ == 0) {
    *this = other;
    return;
  }
  if (other.cols_ != cols_) {
    throw std::invalid_argument("LrMatrix::append_rows: column mismatch");
  }
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  rows_ += other.rows_;
}

LrWeights lr_weights(const std::vector<double>& case_freq,
                     const std::vector<double>& reference_freq,
                     double freq_floor) {
  if (case_freq.size() != reference_freq.size()) {
    throw std::invalid_argument("lr_weights: frequency vector size mismatch");
  }
  LrWeights weights;
  weights.when_minor.resize(case_freq.size());
  weights.when_major.resize(case_freq.size());
  for (std::size_t l = 0; l < case_freq.size(); ++l) {
    const double p_hat =
        std::clamp(case_freq[l], freq_floor, 1.0 - freq_floor);
    const double p = std::clamp(reference_freq[l], freq_floor,
                                1.0 - freq_floor);
    weights.when_minor[l] = std::log(p_hat / p);
    weights.when_major[l] = std::log((1.0 - p_hat) / (1.0 - p));
  }
  return weights;
}

LrMatrix build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights,
                         const std::vector<std::uint32_t>& snp_to_weight_col) {
  LrMatrix matrix(genotypes.num_individuals(), snps.size());
  for (std::size_t n = 0; n < genotypes.num_individuals(); ++n) {
    for (std::size_t i = 0; i < snps.size(); ++i) {
      const std::uint32_t col = snp_to_weight_col[i];
      matrix.at(n, i) = genotypes.get(n, snps[i])
                            ? weights.when_minor[col]
                            : weights.when_major[col];
    }
  }
  return matrix;
}

LrMatrix build_lr_matrix(const genome::GenotypeMatrix& genotypes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights) {
  std::vector<std::uint32_t> identity(snps.size());
  std::iota(identity.begin(), identity.end(), 0u);
  return build_lr_matrix(genotypes, snps, weights, identity);
}

LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights,
                         const std::vector<std::uint32_t>& snp_to_weight_col) {
  const std::size_t rows = planes.num_individuals();
  const std::size_t cols = snps.size();
  LrMatrix matrix(rows, cols);
  if (rows == 0 || cols == 0) return matrix;

  std::vector<double> when_minor(cols), when_major(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    when_minor[i] = weights.when_minor[snp_to_weight_col[i]];
    when_major[i] = weights.when_major[snp_to_weight_col[i]];
  }

  // One plane word covers 64 rows; gather the block's word per column once,
  // then emit the 64 rows contiguously (row-major writes).
  double* out = matrix.values().data();
  std::vector<std::uint64_t> block(cols);
  for (std::size_t w = 0; w < planes.words_per_plane(); ++w) {
    for (std::size_t i = 0; i < cols; ++i) {
      block[i] = planes.plane(snps[i])[w];
    }
    const std::size_t row_end = std::min(rows, (w + 1) * 64);
    for (std::size_t n = w * 64; n < row_end; ++n) {
      const std::size_t k = n % 64;
      double* row_out = out + n * cols;
      for (std::size_t i = 0; i < cols; ++i) {
        row_out[i] = ((block[i] >> k) & 1) != 0 ? when_minor[i]
                                                : when_major[i];
      }
    }
  }
  return matrix;
}

LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights) {
  std::vector<std::uint32_t> identity(snps.size());
  std::iota(identity.begin(), identity.end(), 0u);
  return build_lr_matrix(planes, snps, weights, identity);
}

PlaneBlock plane_block(const genome::BitPlanes& planes,
                       const std::vector<std::uint32_t>& snps) {
  PlaneBlock block;
  block.rows = planes.num_individuals();
  block.columns.reserve(snps.size());
  for (std::uint32_t snp : snps) block.columns.push_back(planes.plane(snp));
  return block;
}

double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out,
                       std::vector<double>& scratch) {
  if (reference_scores.empty() || case_scores.empty()) {
    if (threshold_out != nullptr) *threshold_out = 0.0;
    return 0.0;
  }
  // Threshold: smallest reference score such that the fraction of reference
  // scores strictly above it is <= fpr, i.e. the (1-fpr) empirical quantile.
  // nth_element instead of a full sort: this runs once per candidate SNP in
  // the selection loop and dominates the LR phase at paper scale.
  scratch.assign(reference_scores.begin(), reference_scores.end());
  const std::size_t n_ref = scratch.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil((1.0 - false_positive_rate) * static_cast<double>(n_ref)));
  if (idx == 0) idx = 1;
  if (idx > n_ref) idx = n_ref;
  std::nth_element(scratch.begin(), scratch.begin() + (idx - 1),
                   scratch.end());
  const double threshold = scratch[idx - 1];
  if (threshold_out != nullptr) *threshold_out = threshold;

  std::size_t detected = 0;
  for (double score : case_scores) {
    if (score > threshold) ++detected;
  }
  return static_cast<double>(detected) /
         static_cast<double>(case_scores.size());
}

double detection_power(const std::vector<double>& case_scores,
                       const std::vector<double>& reference_scores,
                       double false_positive_rate, double* threshold_out) {
  std::vector<double> scratch;
  return detection_power(case_scores, reference_scores, false_positive_rate,
                         threshold_out, scratch);
}

namespace {

/// Column block width of the gap pass: wide enough that each task reads
/// contiguous row segments, small enough to spread blocks across the pool.
constexpr std::size_t kGapColumnBlock = 64;

/// Minimum rows before per-candidate score updates are worth fanning out.
constexpr std::size_t kParallelRowThreshold = 4096;

/// LR cells read straight from a materialized matrix.
struct MatrixSource {
  const LrMatrix& m;

  std::size_t rows() const noexcept { return m.rows(); }

  /// sums[i] += cell(r, col_begin + i) for every row r, ascending.
  void sum_columns(std::size_t col_begin, std::size_t col_end,
                   double* sums) const {
    const double* values = m.values().data();
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const double* row = values + r * m.cols() + col_begin;
      for (std::size_t i = 0; i < col_end - col_begin; ++i) sums[i] += row[i];
    }
  }

  /// sums[r] += sign * cell(r, c) for r in [row_begin, row_end).
  void add_column(std::uint32_t c, double sign, double* sums,
                  std::size_t row_begin, std::size_t row_end) const {
    for (std::size_t r = row_begin; r < row_end; ++r) {
      sums[r] += sign * m.at(r, c);
    }
  }
};

/// LR cells selected from indicator bits and one weight pair per column;
/// rows run through the blocks in order, as if they were concatenated.
struct PlaneSource {
  std::span<const PlaneBlock> blocks;
  const LrWeights& weights;
  std::size_t total_rows = 0;

  PlaneSource(std::span<const PlaneBlock> b, const LrWeights& w)
      : blocks(b), weights(w) {
    for (const PlaneBlock& block : blocks) total_rows += block.rows;
  }

  std::size_t rows() const noexcept { return total_rows; }

  void sum_columns(std::size_t col_begin, std::size_t col_end,
                   double* sums) const {
    const std::size_t width = col_end - col_begin;
    const double* minor = weights.when_minor.data() + col_begin;
    const double* major = weights.when_major.data() + col_begin;
    std::uint64_t words[kGapColumnBlock];
    for (const PlaneBlock& block : blocks) {
      for (std::size_t base = 0; base < block.rows; base += 64) {
        for (std::size_t i = 0; i < width; ++i) {
          words[i] = block.columns[col_begin + i][base / 64];
        }
        const std::size_t bits = std::min<std::size_t>(64, block.rows - base);
        for (std::size_t k = 0; k < bits; ++k) {
          for (std::size_t i = 0; i < width; ++i) {
            sums[i] += ((words[i] >> k) & 1) != 0 ? minor[i] : major[i];
          }
        }
      }
    }
  }

  void add_column(std::uint32_t c, double sign, double* sums,
                  std::size_t row_begin, std::size_t row_end) const {
    // sign is +-1, so these products are exact: each add below equals the
    // matrix path's sums[r] += sign * cell.
    const double minor = sign * weights.when_minor[c];
    const double major = sign * weights.when_major[c];
    std::size_t offset = 0;
    for (const PlaneBlock& block : blocks) {
      const std::size_t lo = std::max(row_begin, offset);
      const std::size_t hi = std::min(row_end, offset + block.rows);
      const std::uint64_t* column = block.columns[c];
      for (std::size_t r = lo; r < hi; ++r) {
        const std::size_t local = r - offset;
        sums[r] += ((column[local / 64] >> (local % 64)) & 1) != 0 ? minor
                                                                   : major;
      }
      offset += block.rows;
    }
  }
};

/// Adds (sign = +1) or rolls back (sign = -1) column `candidate` into the
/// per-individual running scores. Rows are independent, so splitting them
/// across the pool cannot change any result bit.
template <typename Source>
void apply_candidate(const Source& source, std::uint32_t candidate,
                     double sign, std::vector<double>& sums,
                     common::ThreadPool* pool) {
  const std::size_t rows = source.rows();
  if (pool == nullptr || rows < kParallelRowThreshold) {
    source.add_column(candidate, sign, sums.data(), 0, rows);
    return;
  }
  const std::size_t chunks =
      std::min(pool->size(), (rows + kParallelRowThreshold - 1) /
                                 kParallelRowThreshold);
  const std::size_t chunk_rows = (rows + chunks - 1) / chunks;
  pool->parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * chunk_rows;
    source.add_column(candidate, sign, sums.data(), begin,
                      std::min(rows, begin + chunk_rows));
  });
}

/// The safe-subset search over any cell source. Per-column means accumulate
/// in ascending row order within each column block, so the gap pass is
/// bit-identical however many blocks run concurrently.
template <typename Source>
LrSelectionResult greedy_select(const Source& cases, const Source& reference,
                                std::size_t cols,
                                const LrSelectionParams& params,
                                common::ThreadPool* pool) {
  LrSelectionResult result;
  if (cols == 0) return result;

  // Identifying power of each SNP alone: the gap between the mean case and
  // mean reference LR contribution. Low-gap SNPs are admitted first.
  std::vector<double> case_means(cols, 0.0);
  std::vector<double> ref_means(cols, 0.0);
  const auto column_means = [cols](const Source& source, std::size_t begin,
                                   std::vector<double>& means) {
    const std::size_t end = std::min(cols, begin + kGapColumnBlock);
    double sums[kGapColumnBlock] = {};
    source.sum_columns(begin, end, sums);
    const double denom =
        source.rows() > 0 ? static_cast<double>(source.rows()) : 1.0;
    for (std::size_t i = 0; i < end - begin; ++i) {
      means[begin + i] = sums[i] / denom;
    }
  };
  const std::size_t blocks = (cols + kGapColumnBlock - 1) / kGapColumnBlock;
  auto gap_block = [&](std::size_t block) {
    column_means(cases, block * kGapColumnBlock, case_means);
    column_means(reference, block * kGapColumnBlock, ref_means);
  };
  if (pool != nullptr && blocks > 1) {
    pool->parallel_for(blocks, gap_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) gap_block(block);
  }
  std::vector<double> gap(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    gap[c] = case_means[c] - ref_means[c];
  }
  std::vector<std::uint32_t> order(cols);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&gap](std::uint32_t a, std::uint32_t b) {
                     if (gap[a] != gap[b]) return gap[a] < gap[b];
                     return a < b;  // deterministic tie-break
                   });

  // Greedy forward admission with incremental per-individual sums.
  std::vector<double> case_sums(cases.rows(), 0.0);
  std::vector<double> ref_sums(reference.rows(), 0.0);
  std::vector<double> quantile_scratch;
  quantile_scratch.reserve(reference.rows());
  std::vector<std::uint32_t> kept;
  double current_power = 0.0;
  double current_threshold = 0.0;

  for (std::uint32_t candidate : order) {
    apply_candidate(cases, candidate, 1.0, case_sums, pool);
    apply_candidate(reference, candidate, 1.0, ref_sums, pool);
    double threshold = 0.0;
    const double power =
        detection_power(case_sums, ref_sums, params.false_positive_rate,
                        &threshold, quantile_scratch);
    if (power <= params.power_threshold) {
      kept.push_back(candidate);
      current_power = power;
      current_threshold = threshold;
    } else {
      // Roll the candidate back and try the next one.
      apply_candidate(cases, candidate, -1.0, case_sums, pool);
      apply_candidate(reference, candidate, -1.0, ref_sums, pool);
    }
  }

  std::sort(kept.begin(), kept.end());
  result.safe_columns = std::move(kept);
  result.final_power = current_power;
  result.final_threshold = current_threshold;
  return result;
}

}  // namespace

LrSelectionResult select_safe_snps(const LrMatrix& case_lr,
                                   const LrMatrix& reference_lr,
                                   const LrSelectionParams& params,
                                   common::ThreadPool* pool) {
  if (case_lr.cols() != reference_lr.cols()) {
    throw std::invalid_argument("select_safe_snps: column count mismatch");
  }
  return greedy_select(MatrixSource{case_lr}, MatrixSource{reference_lr},
                       case_lr.cols(), params, pool);
}

LrSelectionResult select_safe_snps(const std::vector<PlaneBlock>& case_blocks,
                                   const PlaneBlock& reference,
                                   const LrWeights& weights,
                                   const LrSelectionParams& params,
                                   common::ThreadPool* pool) {
  const std::size_t cols = weights.when_minor.size();
  const auto fits = [cols](const PlaneBlock& block) {
    return block.columns.size() == cols;
  };
  if (weights.when_major.size() != cols || !fits(reference) ||
      !std::all_of(case_blocks.begin(), case_blocks.end(), fits)) {
    throw std::invalid_argument("select_safe_snps: column count mismatch");
  }
  return greedy_select(PlaneSource(case_blocks, weights),
                       PlaneSource(std::span(&reference, 1), weights), cols,
                       params, pool);
}

}  // namespace gendpr::stats
