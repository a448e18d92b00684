#include "stats/lr_test.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

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

  void sum_columns(std::size_t col_begin, std::size_t col_end,
                   double* sums) const {
    const std::size_t width = col_end - col_begin;
    std::uint64_t minor[kGapColumnBlock];
    std::uint64_t major[kGapColumnBlock];
    for (std::size_t i = 0; i < width; ++i) {
      minor[i] = std::bit_cast<std::uint64_t>(
          weights.when_minor[col_begin + i]);
      major[i] = std::bit_cast<std::uint64_t>(
          weights.when_major[col_begin + i]);
    }
    std::uint64_t words[kGapColumnBlock];
    for (const PlaneBlock& block : blocks) {
      for (std::size_t base = 0; base < block.rows; base += 64) {
        for (std::size_t i = 0; i < width; ++i) {
          words[i] = block.columns[col_begin + i][base / 64];
        }
        const std::size_t bits = std::min<std::size_t>(64, block.rows - base);
        for (std::size_t k = 0; k < bits; ++k) {
          for (std::size_t i = 0; i < width; ++i) {
            const std::uint64_t take_minor = 0 - ((words[i] >> k) & 1);
            sums[i] += std::bit_cast<double>((minor[i] & take_minor) |
                                             (major[i] & ~take_minor));
          }
        }
      }
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

/// One reference individual's running LR score.
struct RankedScore {
  double score;
  std::uint32_t row;
};

/// The reference scores kept in ascending order across candidates. A
/// candidate adds one of two weights to every score, chosen by the row's
/// bit; rounded addition is monotone, so each bit class keeps its relative
/// order and one stable partition plus one merge re-sorts the whole array.
/// Scores must be finite: the merge's sentinels are the two infinities.
class SortedReference {
 public:
  SortedReference(const PlaneBlock& block, const LrWeights& weights)
      : block_(block),
        weights_(weights),
        ranked_(block.rows),
        runs_(block.rows + 4) {
    for (std::size_t r = 0; r < ranked_.size(); ++r) {
      ranked_[r] = {0.0, static_cast<std::uint32_t>(r)};
    }
  }

  /// Adds column c's weights into the runs buffer, partitioned by bit:
  ///   [-inf] [ones ascending] [+inf] [+inf] [zeros descending] [-inf]
  /// Both runs are stable, so both stay sorted. The sorted array is left
  /// as it was until commit() or roll_back().
  void stage(std::uint32_t c) {
    const std::uint64_t* bits = block_.columns[c];
    const double weight[2] = {weights_.when_major[c], weights_.when_minor[c]};
    const std::size_t n = ranked_.size();
    std::size_t front = 1;
    std::size_t back = n + 2;
    for (const RankedScore& entry : ranked_) {
      const std::uint64_t bit = (bits[entry.row / 64] >> (entry.row % 64)) & 1;
      const RankedScore moved{entry.score + weight[bit], entry.row};
      // Both slots lie in the unfilled gap [front, back]; only the one
      // whose cursor advances keeps this entry.
      runs_[front] = moved;
      runs_[back] = moved;
      front += bit;
      back -= 1 - bit;
    }
    ones_ = front - 1;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    runs_[0].score = -kInf;
    runs_[ones_ + 1].score = kInf;
    runs_[ones_ + 2].score = kInf;
    runs_[n + 3].score = -kInf;
  }

  /// The k-th smallest (1-based) staged score: the same multiset and order
  /// statistic as sorting the staged scores and reading [k - 1]. Binary
  /// search for how many of the k smallest come from the ones run.
  double staged_kth(std::size_t k) const {
    const std::size_t zeros = ranked_.size() - ones_;
    std::size_t lo = k > zeros ? k - zeros : 0;
    std::size_t hi = std::min(k, ones_);
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (one(mid) < zero(k - mid - 1)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // The k smallest are ones [0, lo) and zeros [0, k - lo).
    if (lo == 0) return zero(k - 1);
    if (lo == k) return one(k - 1);
    return std::max(one(lo - 1), zero(k - lo - 1));
  }

  /// Keeps the staged scores: merges the two runs back into sorted order.
  /// Two independent merges run in one loop, the smaller half from the
  /// runs' low ends and the larger half from their high ends, stopping at
  /// the infinities instead of testing bounds. Ties go to the ones run at
  /// the low end and the zeros run at the high end, so the halves split
  /// one total order and never take the same entry.
  void commit() {
    const std::size_t n = ranked_.size();
    std::size_t one_lo = 1;           // smallest one not yet placed
    std::size_t zero_lo = n + 2;      // smallest zero not yet placed
    std::size_t one_hi = ones_;       // largest one not yet placed
    std::size_t zero_hi = ones_ + 3;  // largest zero not yet placed
    RankedScore* out = ranked_.data();
    for (std::size_t k = 0; k < n / 2; ++k) {
      const bool low_zero = runs_[zero_lo].score < runs_[one_lo].score;
      out[k] = runs_[low_zero ? zero_lo : one_lo];
      one_lo += low_zero ? 0 : 1;
      zero_lo -= low_zero ? 1 : 0;
      const bool high_one = runs_[one_hi].score > runs_[zero_hi].score;
      out[n - 1 - k] = runs_[high_one ? one_hi : zero_hi];
      one_hi -= high_one ? 1 : 0;
      zero_hi += high_one ? 0 : 1;
    }
    if (n % 2 != 0) {
      const bool low_zero = runs_[zero_lo].score < runs_[one_lo].score;
      out[n / 2] = runs_[low_zero ? zero_lo : one_lo];
    }
  }

  /// Drops the staged scores the way the matrix path rolls a candidate
  /// back, s = fl(fl(s + w) - w), then merges. The rollback is monotone
  /// within each bit class only: two equal scores in different classes can
  /// round apart, so the runs are merged again rather than reused in their
  /// old order. Each run holds one class, so no bit is read here.
  void roll_back(std::uint32_t c) {
    const double minor = weights_.when_minor[c];
    const double major = weights_.when_major[c];
    const std::size_t n = ranked_.size();
    for (std::size_t t = 1; t <= ones_; ++t) runs_[t].score -= minor;
    for (std::size_t t = ones_ + 3; t <= n + 2; ++t) runs_[t].score -= major;
    commit();
  }

 private:
  /// The t-th smallest staged score with bit 1, and with bit 0.
  double one(std::size_t t) const { return runs_[1 + t].score; }
  double zero(std::size_t t) const {
    return runs_[ranked_.size() + 2 - t].score;
  }

  const PlaneBlock& block_;
  const LrWeights& weights_;
  std::vector<RankedScore> ranked_;  // ascending by score
  std::vector<RankedScore> runs_;    // stage()'s layout
  std::size_t ones_ = 0;
};

/// sums[r] += w (sign = +1) or -= w (sign = -1) for every case row, w being
/// column c's weight for the row's bit; returns how many updated sums
/// exceed `threshold`. One sweep per 64-row plane word.
std::size_t sweep_cases(std::span<const PlaneBlock> blocks,
                        const LrWeights& weights, std::uint32_t c,
                        double sign, double threshold, double* sums) {
  // sign is +-1, so these products are exact and s + (-w) is s - w.
  const double weight[2] = {sign * weights.when_major[c],
                            sign * weights.when_minor[c]};
  std::size_t above = 0;
  for (const PlaneBlock& block : blocks) {
    const std::uint64_t* bits = block.columns[c];
    for (std::size_t base = 0; base < block.rows; base += 64) {
      const std::uint64_t word = bits[base / 64];
      const std::size_t n = std::min<std::size_t>(64, block.rows - base);
      for (std::size_t k = 0; k < n; ++k) {
        const double s = sums[k] + weight[(word >> k) & 1];
        sums[k] = s;
        above += s > threshold ? 1 : 0;
      }
      sums += n;
    }
  }
  return above;
}

/// The safe-subset search on indicator bits. Every score sees the same adds
/// and rollbacks, in the same order, as in matrix_select, and the quantile
/// is the same order statistic, so the result is bit-identical to it.
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

  SortedReference ref(reference, weights);
  const std::size_t rank =
      quantile_rank(params.false_positive_rate, reference.rows);
  std::vector<double> case_sums(case_rows, 0.0);
  std::vector<std::uint32_t> kept;
  for (std::uint32_t candidate : order) {
    ref.stage(candidate);
    const double threshold = ref.staged_kth(rank);
    const double power =
        static_cast<double>(sweep_cases(case_blocks, weights, candidate, 1.0,
                                        threshold, case_sums.data())) /
        static_cast<double>(case_rows);
    if (power <= params.power_threshold) {
      ref.commit();
      kept.push_back(candidate);
      result.final_power = power;
      result.final_threshold = threshold;
    } else {
      ref.roll_back(candidate);
      sweep_cases(case_blocks, weights, candidate, -1.0, threshold,
                  case_sums.data());
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
  // The sorted-scores engine stops its merges at infinite sentinels.
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
