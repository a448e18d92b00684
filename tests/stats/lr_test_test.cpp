#include "stats/lr_test.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "lr_reference.hpp"

namespace gendpr::stats {
namespace {

TEST(LrWeightsTest, KnownValues) {
  const LrWeights w = lr_weights({0.4}, {0.2});
  EXPECT_NEAR(w.when_minor[0], std::log(0.4 / 0.2), 1e-12);
  EXPECT_NEAR(w.when_major[0], std::log(0.6 / 0.8), 1e-12);
}

TEST(LrWeightsTest, EqualFrequenciesGiveZero) {
  const LrWeights w = lr_weights({0.3, 0.1}, {0.3, 0.1});
  for (double v : w.when_minor) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : w.when_major) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LrWeightsTest, ClampsDegenerateFrequencies) {
  const LrWeights w = lr_weights({0.0, 1.0}, {0.5, 0.5});
  for (double v : w.when_minor) EXPECT_TRUE(std::isfinite(v));
  for (double v : w.when_major) EXPECT_TRUE(std::isfinite(v));
}

TEST(LrWeightsTest, SizeMismatchThrows) {
  EXPECT_THROW(lr_weights({0.1, 0.2}, {0.1}), std::invalid_argument);
}

TEST(LrMatrixTest, BuildUsesGenotypeToPickWeight) {
  genome::GenotypeMatrix g(2, 3);
  g.set(0, 1, true);
  g.set(1, 2, true);
  const LrWeights w = lr_weights({0.4, 0.4, 0.4}, {0.2, 0.2, 0.2});
  const std::vector<std::uint32_t> snps = {0, 1, 2};
  const LrMatrix lr = build_lr_matrix(genome::BitPlanes(g), snps, w);
  EXPECT_EQ(lr.rows(), 2u);
  EXPECT_EQ(lr.cols(), 3u);
  EXPECT_DOUBLE_EQ(lr.at(0, 0), w.when_major[0]);
  EXPECT_DOUBLE_EQ(lr.at(0, 1), w.when_minor[1]);
  EXPECT_DOUBLE_EQ(lr.at(1, 2), w.when_minor[2]);
}

TEST(LrMatrixTest, SubsetColumnsMapThroughWeightIndex) {
  genome::GenotypeMatrix g(1, 5);
  g.set(0, 4, true);
  // Weights indexed over the subset {2, 4}.
  const LrWeights w = lr_weights({0.3, 0.5}, {0.3, 0.25});
  const std::vector<std::uint32_t> snps = {2, 4};
  const LrMatrix lr = build_lr_matrix(genome::BitPlanes(g), snps, w);
  EXPECT_DOUBLE_EQ(lr.at(0, 0), w.when_major[0]);
  EXPECT_DOUBLE_EQ(lr.at(0, 1), w.when_minor[1]);
}

genome::GenotypeMatrix random_genotypes(std::size_t individuals,
                                        std::size_t snps,
                                        std::uint64_t seed,
                                        double minor_freq = 0.3) {
  common::Rng rng(seed);
  genome::GenotypeMatrix g(individuals, snps);
  for (std::size_t n = 0; n < individuals; ++n) {
    for (std::size_t s = 0; s < snps; ++s) {
      if (rng.bernoulli(minor_freq)) g.set(n, s, true);
    }
  }
  return g;
}

LrWeights random_weights(std::size_t cols, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> case_freq(cols);
  std::vector<double> ref_freq(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    case_freq[i] = rng.uniform(0.05, 0.95);
    ref_freq[i] = rng.uniform(0.05, 0.95);
  }
  return lr_weights(case_freq, ref_freq);
}

TEST(PlaneSelectionTest, BitIdenticalToMatrixSelection) {
  // The plane path (row-order scores, a bracketed quantile on the band)
  // against the matrix path (nth_element per candidate), bit for bit.
  // Case blocks of 70, 0 and 130 rows: off the 64-row word boundary, and
  // one GDO with no case rows. Every fifth column has p-hat = p, so both
  // its weights are +0.0 and every score ties with its old value. The
  // low power limits and high FPRs reject most candidates, which drives
  // the fl(fl(s + w) - w) rollback.
  const std::vector<std::uint32_t> snps = {0,  2,  3,  5,  7,  9,  12, 14,
                                           17, 20, 22, 25, 27, 31, 33, 36,
                                           38, 39};
  common::ThreadPool pool(2);
  std::size_t kept = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Odd seeds draw cases at a higher minor-allele rate: a real signal.
    const double case_freq = seed % 2 == 1 ? 0.4 : 0.3;
    const genome::BitPlanes first(
        random_genotypes(70, 40, 100 + seed, case_freq));
    const genome::BitPlanes empty(random_genotypes(0, 40, 200 + seed));
    const genome::BitPlanes second(
        random_genotypes(130, 40, 300 + seed, case_freq));
    std::vector<double> case_f(snps.size());
    std::vector<double> ref_f(snps.size());
    common::Rng rng(seed);
    for (std::size_t i = 0; i < snps.size(); ++i) {
      case_f[i] = rng.uniform(0.05, 0.95);
      ref_f[i] = i % 5 == 0 ? case_f[i] : rng.uniform(0.05, 0.95);
    }
    const LrWeights w = lr_weights(case_f, ref_f);
    LrMatrix case_lr = build_lr_matrix(first, snps, w);
    reference::append_rows(case_lr, build_lr_matrix(empty, snps, w));
    reference::append_rows(case_lr, build_lr_matrix(second, snps, w));
    const std::vector<PlaneBlock> case_blocks = {plane_block(first, snps),
                                                 plane_block(empty, snps),
                                                 plane_block(second, snps)};
    for (std::size_t ref_rows : {0, 1, 63, 64, 65, 150}) {
      const genome::BitPlanes reference(
          random_genotypes(ref_rows, 40, 400 + seed));
      const LrMatrix ref_lr = build_lr_matrix(reference, snps, w);
      for (double power : {0.05, 0.3, 0.6, 0.9}) {
        for (double fpr : {0.0, 0.1, 0.5, 1.0}) {
          LrSelectionParams params;
          params.power_threshold = power;
          params.false_positive_rate = fpr;
          const LrSelectionResult expected =
              select_safe_snps(case_lr, ref_lr, params);
          const LrSelectionResult got = select_safe_snps(
              case_blocks, plane_block(reference, snps), w, params,
              seed % 3 == 0 ? &pool : nullptr);
          const std::string where =
              "seed " + std::to_string(seed) + " ref_rows " +
              std::to_string(ref_rows) + " power " + std::to_string(power) +
              " fpr " + std::to_string(fpr);
          EXPECT_EQ(got.safe_columns, expected.safe_columns) << where;
          kept += expected.safe_columns.size();
          rejected += snps.size() - expected.safe_columns.size();
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_power),
                    std::bit_cast<std::uint64_t>(expected.final_power))
              << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_threshold),
                    std::bit_cast<std::uint64_t>(expected.final_threshold))
              << where;
        }
      }
    }
  }
  // The sweep must exercise both outcomes of the greedy test.
  EXPECT_GT(kept, rejected / 4);
  EXPECT_GT(rejected, kept / 4);
}

TEST(PlaneSelectionTest, LongRejectionRunsMatchMatrixSelection) {
  // Power limit 0.05 on a real signal rejects candidate after candidate (at
  // most 4 of 90 are kept), so each pass rolls the last one back before
  // adding the next and the bracket is widened by the rollback every time;
  // a bracket that skips the widening returns other safe sets at FPR 0.3
  // and 0.5. 1,203 reference rows and case blocks of 301 and 599 rows put
  // every SIMD kernel's main loop and its tail to work.
  std::vector<std::uint32_t> snps(90);
  std::iota(snps.begin(), snps.end(), 0u);
  const genome::BitPlanes first(random_genotypes(301, 90, 11, 0.33));
  const genome::BitPlanes second(random_genotypes(599, 90, 12, 0.33));
  const genome::BitPlanes panel(random_genotypes(1203, 90, 13, 0.3));
  std::vector<double> case_f(snps.size());
  std::vector<double> ref_f(snps.size());
  for (std::uint32_t s : snps) {
    case_f[s] = static_cast<double>(first.allele_count(s) +
                                    second.allele_count(s)) /
                900.0;
    ref_f[s] = static_cast<double>(panel.allele_count(s)) / 1203.0;
  }
  const LrWeights w = lr_weights(case_f, ref_f);
  LrMatrix case_lr = build_lr_matrix(first, snps, w);
  reference::append_rows(case_lr, build_lr_matrix(second, snps, w));
  const LrMatrix ref_lr = build_lr_matrix(panel, snps, w);
  common::ThreadPool pool(2);
  for (double fpr : {0.1, 0.3, 0.5}) {
    LrSelectionParams params;
    params.power_threshold = 0.05;
    params.false_positive_rate = fpr;
    const LrSelectionResult expected =
        select_safe_snps(case_lr, ref_lr, params);
    EXPECT_GE(snps.size() - expected.safe_columns.size(), 60u)
        << "fpr " << fpr;
    EXPECT_GE(expected.safe_columns.size(), 1u) << "fpr " << fpr;
    common::ThreadPool* pools[] = {&pool, nullptr};
    for (common::ThreadPool* maybe_pool : pools) {
      const LrSelectionResult got = select_safe_snps(
          {plane_block(first, snps), plane_block(second, snps)},
          plane_block(panel, snps), w, params, maybe_pool);
      EXPECT_EQ(got.safe_columns, expected.safe_columns) << "fpr " << fpr;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_power),
                std::bit_cast<std::uint64_t>(expected.final_power));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_threshold),
                std::bit_cast<std::uint64_t>(expected.final_threshold));
    }
  }
}

TEST(PlaneSelectionTest, EmptyColumnsGiveEmptyResult) {
  const genome::BitPlanes planes(random_genotypes(10, 4, 5));
  const LrSelectionResult result = select_safe_snps(
      {plane_block(planes, {})}, plane_block(planes, {}), LrWeights{},
      LrSelectionParams{});
  EXPECT_TRUE(result.safe_columns.empty());
  EXPECT_EQ(result.final_power, 0.0);
}

TEST(PlaneSelectionTest, ColumnMismatchThrows) {
  const genome::BitPlanes planes(random_genotypes(10, 4, 5));
  const LrWeights w = random_weights(2, 9);
  EXPECT_THROW(select_safe_snps({plane_block(planes, {0, 1})},
                                plane_block(planes, {0, 1, 2}), w,
                                LrSelectionParams{}),
               std::invalid_argument);
  EXPECT_THROW(select_safe_snps({plane_block(planes, {0})},
                                plane_block(planes, {0, 1}), w,
                                LrSelectionParams{}),
               std::invalid_argument);
}

TEST(PlaneSelectionTest, NonFiniteWeightThrows) {
  // The quantile bracket is rounded arithmetic on the weights: with an
  // infinite weight, a rollback could compute inf - inf, a NaN that no
  // bracket holds.
  const genome::BitPlanes planes(random_genotypes(10, 4, 5));
  for (double bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    LrWeights w = random_weights(2, 9);
    w.when_major[1] = bad;
    EXPECT_THROW(select_safe_snps({plane_block(planes, {0, 1})},
                                  plane_block(planes, {0, 1}), w,
                                  LrSelectionParams{}),
                 std::invalid_argument);
  }
}

TEST(DetectionPowerTest, SeparatedScoresFullPower) {
  // Case scores all above every reference score -> power 1 at any FPR.
  const std::vector<double> case_scores = {10.0, 11.0, 12.0};
  const std::vector<double> ref_scores = {0.0, 1.0, 2.0, 3.0, 4.0,
                                          5.0, 6.0, 7.0, 8.0, 9.0};
  double threshold = 0.0;
  const double power = detection_power(case_scores, ref_scores, 0.1,
                                       &threshold);
  EXPECT_DOUBLE_EQ(power, 1.0);
  // 90th empirical percentile: exactly one of ten reference scores exceeds
  // it, matching the 0.1 false-positive budget.
  EXPECT_DOUBLE_EQ(threshold, 8.0);
}

TEST(DetectionPowerTest, IdenticalDistributionsPowerNearFpr) {
  common::Rng rng(3);
  std::vector<double> case_scores(5000);
  std::vector<double> ref_scores(5000);
  for (auto& s : case_scores) s = rng.normal();
  for (auto& s : ref_scores) s = rng.normal();
  const double power = detection_power(case_scores, ref_scores, 0.1, nullptr);
  EXPECT_NEAR(power, 0.1, 0.02);  // no signal: power == false-positive rate
}

TEST(DetectionPowerTest, EmptyInputsGiveZero) {
  EXPECT_DOUBLE_EQ(detection_power({}, {1.0}, 0.1, nullptr), 0.0);
  EXPECT_DOUBLE_EQ(detection_power({1.0}, {}, 0.1, nullptr), 0.0);
}

TEST(DetectionPowerTest, ScratchOverloadBitIdentical) {
  common::Rng rng(5);
  std::vector<double> case_scores(777);
  std::vector<double> ref_scores(1234);
  for (auto& s : case_scores) s = rng.normal();
  for (auto& s : ref_scores) s = rng.normal();
  std::vector<double> scratch;
  for (double fpr : {0.0, 0.05, 0.1, 0.5, 0.999}) {
    double t_plain = 0.0, t_scratch = 0.0;
    const double plain =
        detection_power(case_scores, ref_scores, fpr, &t_plain);
    const double reused =
        detection_power(case_scores, ref_scores, fpr, &t_scratch, scratch);
    EXPECT_DOUBLE_EQ(plain, reused) << "fpr " << fpr;
    EXPECT_DOUBLE_EQ(t_plain, t_scratch) << "fpr " << fpr;
  }
}

TEST(DetectionPowerTest, ThresholdQuantileEdges) {
  const std::vector<double> ref = {1.0, 2.0, 3.0, 4.0};
  double threshold = 0.0;
  // FPR 0 -> threshold is the max; nothing above it.
  detection_power({10.0}, ref, 0.0, &threshold);
  EXPECT_DOUBLE_EQ(threshold, 4.0);
  // FPR ~1 -> threshold is the min.
  detection_power({10.0}, ref, 0.999, &threshold);
  EXPECT_DOUBLE_EQ(threshold, 1.0);
}

class SelectSafeSnpsTest : public ::testing::Test {
 protected:
  /// Builds LR matrices where columns [0, identifying) have a case/reference
  /// gap of `gap` and the rest are pure noise.
  static std::pair<LrMatrix, LrMatrix> synthetic(std::size_t n_case,
                                                 std::size_t n_ref,
                                                 std::size_t cols,
                                                 std::size_t identifying,
                                                 double gap,
                                                 std::uint64_t seed) {
    common::Rng rng(seed);
    LrMatrix case_lr(n_case, cols);
    LrMatrix ref_lr(n_ref, cols);
    for (std::size_t c = 0; c < cols; ++c) {
      const double shift = c < identifying ? gap : 0.0;
      for (std::size_t r = 0; r < n_case; ++r) {
        case_lr.at(r, c) = rng.normal() * 0.1 + shift;
      }
      for (std::size_t r = 0; r < n_ref; ++r) {
        ref_lr.at(r, c) = rng.normal() * 0.1;
      }
    }
    return {case_lr, ref_lr};
  }
};

TEST_F(SelectSafeSnpsTest, NoSignalKeepsEverything) {
  const auto [case_lr, ref_lr] = synthetic(400, 400, 30, 0, 0.0, 7);
  const LrSelectionResult result =
      select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  EXPECT_EQ(result.safe_columns.size(), 30u);
  EXPECT_LE(result.final_power, 0.9);
}

TEST_F(SelectSafeSnpsTest, StrongIdentifiersAreDropped) {
  const auto [case_lr, ref_lr] = synthetic(400, 400, 30, 5, 3.0, 11);
  const LrSelectionResult result =
      select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  EXPECT_LE(result.final_power, 0.9);
  // The 5 identifying columns (0..4) must not all survive.
  std::size_t surviving_identifiers = 0;
  for (std::uint32_t c : result.safe_columns) {
    if (c < 5) ++surviving_identifiers;
  }
  EXPECT_LT(surviving_identifiers, 5u);
  // The noise columns should all survive.
  std::size_t surviving_noise = 0;
  for (std::uint32_t c : result.safe_columns) {
    if (c >= 5) ++surviving_noise;
  }
  EXPECT_EQ(surviving_noise, 25u);
}

TEST_F(SelectSafeSnpsTest, PowerConstraintHolds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto [case_lr, ref_lr] = synthetic(300, 300, 40, 10, 1.5, seed);
    LrSelectionParams params;
    params.power_threshold = 0.5;
    const LrSelectionResult result =
        select_safe_snps(case_lr, ref_lr, params);
    EXPECT_LE(result.final_power, 0.5) << "seed " << seed;
  }
}

TEST_F(SelectSafeSnpsTest, RowOrderInvariance) {
  // GenDPR merges GDO matrices in arbitrary order; selection must not care.
  const auto [case_lr, ref_lr] = synthetic(200, 200, 20, 4, 2.0, 13);
  LrMatrix reversed_case(case_lr.rows(), case_lr.cols());
  for (std::size_t r = 0; r < case_lr.rows(); ++r) {
    for (std::size_t c = 0; c < case_lr.cols(); ++c) {
      reversed_case.at(case_lr.rows() - 1 - r, c) = case_lr.at(r, c);
    }
  }
  const auto a = select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  const auto b = select_safe_snps(reversed_case, ref_lr, LrSelectionParams{});
  EXPECT_EQ(a.safe_columns, b.safe_columns);
  EXPECT_DOUBLE_EQ(a.final_power, b.final_power);
}

TEST_F(SelectSafeSnpsTest, PooledSelectionBitIdenticalToSerial) {
  // The pool splits the gap pass by column block and the candidate updates
  // by row chunk; both preserve the serial accumulation order per element,
  // so the selection must match exactly - the collusion tests rely on this.
  common::ThreadPool pool(4);
  for (std::uint64_t seed : {3ull, 19ull, 29ull}) {
    const auto [case_lr, ref_lr] = synthetic(500, 500, 35, 8, 1.2, seed);
    const auto serial = select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
    const auto pooled =
        select_safe_snps(case_lr, ref_lr, LrSelectionParams{}, &pool);
    EXPECT_EQ(serial.safe_columns, pooled.safe_columns) << "seed " << seed;
    EXPECT_DOUBLE_EQ(serial.final_power, pooled.final_power);
    EXPECT_DOUBLE_EQ(serial.final_threshold, pooled.final_threshold);
  }
}

TEST_F(SelectSafeSnpsTest, EmptyMatrixGivesEmptyResult) {
  const LrMatrix empty;
  const auto result = select_safe_snps(empty, empty, LrSelectionParams{});
  EXPECT_TRUE(result.safe_columns.empty());
}

TEST_F(SelectSafeSnpsTest, ColumnMismatchThrows) {
  LrMatrix a(1, 2);
  LrMatrix b(1, 3);
  EXPECT_THROW(select_safe_snps(a, b, LrSelectionParams{}),
               std::invalid_argument);
}

TEST_F(SelectSafeSnpsTest, SafeColumnsAreSortedAndUnique) {
  const auto [case_lr, ref_lr] = synthetic(200, 200, 25, 6, 1.0, 17);
  const auto result = select_safe_snps(case_lr, ref_lr, LrSelectionParams{});
  EXPECT_TRUE(std::is_sorted(result.safe_columns.begin(),
                             result.safe_columns.end()));
  EXPECT_EQ(std::adjacent_find(result.safe_columns.begin(),
                               result.safe_columns.end()),
            result.safe_columns.end());
}

// Property sweep over FPR values: the final power never exceeds the limit.
class LrFprSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(LrFprSweepTest, PowerBounded) {
  common::Rng rng(23);
  LrMatrix case_lr(300, 30);
  LrMatrix ref_lr(300, 30);
  for (auto& v : case_lr.values()) v = rng.normal() * 0.2 + 0.1;
  for (auto& v : ref_lr.values()) v = rng.normal() * 0.2;
  LrSelectionParams params;
  params.false_positive_rate = GetParam();
  params.power_threshold = 0.6;
  const auto result = select_safe_snps(case_lr, ref_lr, params);
  EXPECT_LE(result.final_power, 0.6);
}

INSTANTIATE_TEST_SUITE_P(Fprs, LrFprSweepTest,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5));

}  // namespace
}  // namespace gendpr::stats
