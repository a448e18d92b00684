#include "stats/lr_test.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "genome/kernels/kernels.hpp"

namespace gendpr::stats {

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

LrMatrix build_lr_matrix(const genome::BitPlanes& planes,
                         const std::vector<std::uint32_t>& snps,
                         const LrWeights& weights) {
  const std::size_t rows = planes.num_individuals();
  const std::size_t cols = snps.size();
  LrMatrix matrix(rows, cols);
  if (rows == 0 || cols == 0) return matrix;

  // One plane word covers 64 rows; gather the block's word per column once,
  // then emit the 64 rows contiguously (row-major writes).
  const double* when_minor = weights.when_minor.data();
  const double* when_major = weights.when_major.data();
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

PlaneBlock plane_block(const genome::BitPlanes& planes,
                       const std::vector<std::uint32_t>& snps) {
  PlaneBlock block;
  block.rows = planes.num_individuals();
  block.columns.reserve(snps.size());
  for (std::uint32_t snp : snps) block.columns.push_back(planes.plane(snp));
  return block;
}

namespace {

/// 1-based rank of the (1 - fpr) empirical quantile among n > 0 reference
/// scores, clamped to [1, n]. The clamp happens before the cast, so an FPR
/// outside [0, 1] (or NaN) cannot overflow the conversion.
std::size_t quantile_rank(double false_positive_rate, std::size_t n) {
  const double rank =
      std::ceil((1.0 - false_positive_rate) * static_cast<double>(n));
  if (!(rank > 1.0)) return 1;
  if (rank >= static_cast<double>(n)) return n;
  return static_cast<std::size_t>(rank);
}

}  // namespace

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
  // nth_element instead of a full sort: the matrix selection calls this once
  // per candidate SNP.
  scratch.assign(reference_scores.begin(), reference_scores.end());
  const std::size_t idx =
      quantile_rank(false_positive_rate, scratch.size());
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

/// Minimum rows before the matrix path fans a candidate's score update out.
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

  /// The dispatched column-sum kernel, block by block: each column still
  /// adds its rows in ascending order.
  void sum_columns(std::size_t col_begin, std::size_t col_end,
                   double* sums) const {
    const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
    for (const PlaneBlock& block : blocks) {
      ops.column_sums(block.columns.data() + col_begin, col_end - col_begin,
                      block.rows, weights.when_minor.data() + col_begin,
                      weights.when_major.data() + col_begin, sums);
    }
  }
};

/// Adds (sign = +1) or rolls back (sign = -1) column `candidate` into the
/// per-individual running scores. Rows are independent, so splitting them
/// across the pool cannot change any result bit.
void apply_candidate(const MatrixSource& source, std::uint32_t candidate,
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

/// Column order of the greedy admission: ascending gap between the mean
/// case and mean reference LR contribution (each SNP's identifying power
/// alone), ties by column. Per-column means accumulate in ascending row
/// order within each column block, so the order is bit-identical however
/// many blocks run concurrently.
template <typename Source>
std::vector<std::uint32_t> admission_order(const Source& cases,
                                           const Source& reference,
                                           std::size_t cols,
                                           common::ThreadPool* pool) {
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
  return order;
}

/// The safe-subset search over a materialized matrix: per-row running sums
/// and an nth_element quantile per candidate.
LrSelectionResult matrix_select(const MatrixSource& cases,
                                const MatrixSource& reference,
                                std::size_t cols,
                                const LrSelectionParams& params,
                                common::ThreadPool* pool) {
  LrSelectionResult result;
  if (cols == 0) return result;
  const std::vector<std::uint32_t> order =
      admission_order(cases, reference, cols, pool);

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

/// The safe-subset search on indicator bits, with every score kept in row
/// order. The threshold t is the rank-th smallest reference score; rounded
/// addition is monotone, so after a candidate with weights {w0, w1} it lies
/// in the bracket [fl(t + min w), fl(t + max w)], and a pending rollback
/// first widens t to [min, max] of fl(t - w_prev) over both bits. One
/// kernel pass per population rolls back, adds, counts the rows below
/// (reference) and above (cases) the bracket and collects the rows inside
/// it; nth_element then runs on the reference band only. Every score sees
/// the same adds and rollbacks, in the same order, as in matrix_select, and
/// the threshold is the same order statistic, so the result is
/// bit-identical to it.
LrSelectionResult plane_select(std::span<const PlaneBlock> case_blocks,
                               const PlaneBlock& reference,
                               const LrWeights& weights, std::size_t cols,
                               const LrSelectionParams& params,
                               common::ThreadPool* pool) {
  LrSelectionResult result;
  if (cols == 0) return result;
  const PlaneSource cases(case_blocks, weights);
  const std::size_t case_rows = cases.rows();
  if (case_rows == 0 || reference.rows == 0) {
    // detection_power's empty case: threshold and power are 0 throughout.
    if (0.0 <= params.power_threshold) {
      result.safe_columns.resize(cols);
      std::iota(result.safe_columns.begin(), result.safe_columns.end(), 0u);
    }
    return result;
  }
  const std::vector<std::uint32_t> order = admission_order(
      cases, PlaneSource(std::span(&reference, 1), weights), cols, pool);

  const genome::kernels::KernelOps& ops = genome::kernels::kernel_ops();
  const std::size_t rank =
      quantile_rank(params.false_positive_rate, reference.rows);
  std::vector<double> ref_scores(reference.rows, 0.0);
  std::vector<double> ref_band(reference.rows);
  std::vector<double> case_scores(case_rows, 0.0);
  std::vector<double> case_band(case_rows);
  double threshold = 0.0;  // of the current scores, all +0.0 at first
  bool rejected = false;
  std::uint32_t previous = 0;
  std::vector<std::uint32_t> kept;
  const auto column = [&weights](const PlaneBlock& block, std::uint32_t c) {
    return genome::kernels::WeightedBits{
        block.columns[c], {weights.when_major[c], weights.when_minor[c]}};
  };
  for (std::uint32_t candidate : order) {
    const auto undo = column(reference, previous);
    const auto add = column(reference, candidate);
    double lo = threshold;
    double hi = threshold;
    if (rejected) {
      lo = std::min(threshold - undo.weight[0], threshold - undo.weight[1]);
      hi = std::max(threshold - undo.weight[0], threshold - undo.weight[1]);
    }
    lo += std::min(add.weight[0], add.weight[1]);
    hi += std::max(add.weight[0], add.weight[1]);
    const genome::kernels::SweepCounts ref =
        ops.sweep_scores(ref_scores.data(), reference.rows,
                         rejected ? &undo : nullptr, add, lo, hi,
                         ref_band.data());
    std::size_t above = 0;
    std::size_t case_in_band = 0;
    double* scores = case_scores.data();
    for (const PlaneBlock& block : case_blocks) {
      const auto block_undo = column(block, previous);
      const genome::kernels::SweepCounts swept = ops.sweep_scores(
          scores, block.rows, rejected ? &block_undo : nullptr,
          column(block, candidate), lo, hi, case_band.data() + case_in_band);
      above += swept.above;
      case_in_band += swept.band;
      scores += block.rows;
    }
    // The bracket holds the rank-th score: below < rank <= below + band.
    const auto nth = ref_band.begin() +
                     static_cast<std::ptrdiff_t>(rank - ref.below - 1);
    std::nth_element(ref_band.begin(), nth,
                     ref_band.begin() + static_cast<std::ptrdiff_t>(ref.band));
    threshold = *nth;
    for (std::size_t i = 0; i < case_in_band; ++i) {
      above += case_band[i] > threshold ? 1 : 0;
    }
    const double power =
        static_cast<double>(above) / static_cast<double>(case_rows);
    rejected = !(power <= params.power_threshold);
    previous = candidate;
    if (!rejected) {
      kept.push_back(candidate);
      result.final_power = power;
      result.final_threshold = threshold;
    }
  }
  std::sort(kept.begin(), kept.end());
  result.safe_columns = std::move(kept);
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
  return matrix_select(MatrixSource{case_lr}, MatrixSource{reference_lr},
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
  // The bracket is rounded arithmetic on the weights: with an infinite
  // weight, t - w or a score's rollback could be inf - inf, a NaN.
  const auto finite = [](double w) { return std::isfinite(w); };
  if (!std::all_of(weights.when_minor.begin(), weights.when_minor.end(),
                   finite) ||
      !std::all_of(weights.when_major.begin(), weights.when_major.end(),
                   finite)) {
    throw std::invalid_argument("select_safe_snps: non-finite LR weight");
  }
  return plane_select(case_blocks, reference, weights, cols, params, pool);
}

}  // namespace gendpr::stats
