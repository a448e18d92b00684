// Portable-vs-SIMD kernel equivalence: every compiled-and-supported backend
// must agree bit for bit with the portable reference on randomized planes,
// tail words, and degenerate all-zero/all-one inputs, and the LR kernels'
// doubles must match bit for bit too. Skipping unavailable backends
// (non-x86 hosts, old CPUs) keeps the suite green everywhere.
#include "genome/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace gendpr::genome::kernels {
namespace {

std::vector<KernelBackend> available_simd_backends() {
  std::vector<KernelBackend> backends;
  for (KernelBackend backend : {KernelBackend::avx2, KernelBackend::avx512}) {
    if (kernel_backend_available(backend)) backends.push_back(backend);
  }
  return backends;
}

std::vector<std::uint64_t> random_words(common::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng.next();
  return words;
}

TEST(KernelsTest, BackendNamesAreStable) {
  EXPECT_STREQ(kernel_backend_name(KernelBackend::portable), "portable");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::avx2), "avx2");
  EXPECT_STREQ(kernel_backend_name(KernelBackend::avx512), "avx512");
}

TEST(KernelsTest, PortableAlwaysAvailable) {
  EXPECT_TRUE(kernel_backend_available(KernelBackend::portable));
  // The active backend must itself be available.
  EXPECT_TRUE(kernel_backend_available(active_kernel_backend()));
}

TEST(KernelsTest, UnavailableBackendResolvesToPortable) {
  for (KernelBackend backend : {KernelBackend::avx2, KernelBackend::avx512}) {
    if (!kernel_backend_available(backend)) {
      EXPECT_EQ(&kernel_ops_for(backend),
                &kernel_ops_for(KernelBackend::portable));
    }
  }
}

TEST(KernelsTest, PopcountMatchesPortableOnRandomWords) {
  common::Rng rng(0x1ee7);
  const KernelOps& portable = kernel_ops_for(KernelBackend::portable);
  for (KernelBackend backend : available_simd_backends()) {
    const KernelOps& ops = kernel_ops_for(backend);
    // Sweep sizes across the vector-width boundaries and the Harley-Seal
    // 64-word block: 0, tails, exact blocks, blocks + tails.
    for (std::size_t n :
         {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 63u, 64u, 65u, 127u, 1000u}) {
      const auto words = random_words(rng, n);
      EXPECT_EQ(ops.popcount_words(words.data(), n),
                portable.popcount_words(words.data(), n))
          << kernel_backend_name(backend) << " n=" << n;
    }
  }
}

TEST(KernelsTest, AndPopcountMatchesPortableOnRandomWords) {
  common::Rng rng(424242);
  const KernelOps& portable = kernel_ops_for(KernelBackend::portable);
  for (KernelBackend backend : available_simd_backends()) {
    const KernelOps& ops = kernel_ops_for(backend);
    for (std::size_t n :
         {0u, 1u, 3u, 4u, 7u, 8u, 15u, 16u, 63u, 64u, 65u, 127u, 1000u}) {
      const auto a = random_words(rng, n);
      const auto b = random_words(rng, n);
      EXPECT_EQ(ops.and_popcount_words(a.data(), b.data(), n),
                portable.and_popcount_words(a.data(), b.data(), n))
          << kernel_backend_name(backend) << " n=" << n;
    }
  }
}

TEST(KernelsTest, PopcountDegenerateAllZeroAllOne) {
  for (KernelBackend backend : available_simd_backends()) {
    const KernelOps& ops = kernel_ops_for(backend);
    for (std::size_t n : {1u, 64u, 65u, 129u}) {
      const std::vector<std::uint64_t> zeros(n, 0);
      const std::vector<std::uint64_t> ones(n, ~0ull);
      EXPECT_EQ(ops.popcount_words(zeros.data(), n), 0u);
      EXPECT_EQ(ops.popcount_words(ones.data(), n), n * 64);
      EXPECT_EQ(ops.and_popcount_words(zeros.data(), ones.data(), n), 0u);
      EXPECT_EQ(ops.and_popcount_words(ones.data(), ones.data(), n), n * 64);
    }
  }
}

/// Doubles as bit patterns, so -0.0 vs +0.0 and every rounding count.
std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// One backend's sweep over a copy of `scores`: the updated scores, the
/// counts, and the band sorted so it compares as a multiset.
struct SweepRun {
  std::vector<double> scores;
  SweepCounts counts;
  std::vector<double> band;
};

SweepRun run_sweep(const KernelOps& ops, std::vector<double> scores,
                   const WeightedBits* undo, const WeightedBits& add,
                   double lo, double hi) {
  SweepRun run;
  run.band.assign(scores.size(), 0.0);
  run.counts = ops.sweep_scores(scores.data(), scores.size(), undo, add, lo,
                                hi, run.band.data());
  run.band.resize(run.counts.band);
  std::sort(run.band.begin(), run.band.end());
  run.scores = std::move(scores);
  return run;
}

TEST(KernelsTest, SweepMatchesPortable) {
  common::Rng rng(0x5eed);
  const KernelOps& portable = kernel_ops_for(KernelBackend::portable);
  // Weight pairs of both signs and both orders, one pair of equal weights.
  const double pairs[][2] = {{-0.7, 0.4}, {0.9, -0.2}, {-1.5, -0.3},
                             {0.25, 0.25}, {3.0, 0.5}};
  for (KernelBackend backend : available_simd_backends()) {
    const KernelOps& ops = kernel_ops_for(backend);
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
      const auto add_bits = random_words(rng, (n + 63) / 64);
      const auto undo_bits = random_words(rng, (n + 63) / 64);
      std::vector<double> scores(n);
      for (double& s : scores) s = rng.uniform(-4.0, 4.0);
      for (const auto& pair : pairs) {
        const WeightedBits add{add_bits.data(), {pair[0], pair[1]}};
        const WeightedBits undo{undo_bits.data(), {pair[1], -pair[0]}};
        const WeightedBits* rollbacks[] = {&undo, nullptr};
        for (const WeightedBits* rollback : rollbacks) {
          // A band that misses every row, then bounds equal to updated
          // scores, so rows sit on both edges, and a one-point band.
          const SweepRun probe =
              run_sweep(portable, scores, rollback, add, -1.0, 1.0);
          std::vector<std::pair<double, double>> bounds = {{1e9, 2e9}};
          if (n > 0) {
            const double a = probe.scores[n / 3];
            const double b = probe.scores[(2 * n) / 3];
            bounds.emplace_back(std::min(a, b), std::max(a, b));
            bounds.emplace_back(a, a);
          }
          for (const auto& [lo, hi] : bounds) {
            const std::string where =
                std::string(kernel_backend_name(backend)) +
                " n=" + std::to_string(n) + " w=" + std::to_string(pair[0]) +
                "," + std::to_string(pair[1]) +
                (rollback != nullptr ? " rollback" : "") +
                " lo=" + std::to_string(lo);
            const SweepRun want =
                run_sweep(portable, scores, rollback, add, lo, hi);
            const SweepRun got = run_sweep(ops, scores, rollback, add, lo, hi);
            EXPECT_EQ(bits_of(got.scores), bits_of(want.scores)) << where;
            EXPECT_EQ(got.counts.below, want.counts.below) << where;
            EXPECT_EQ(got.counts.above, want.counts.above) << where;
            EXPECT_EQ(bits_of(got.band), bits_of(want.band)) << where;
            EXPECT_EQ(want.counts.below + want.counts.above +
                          want.counts.band,
                      n)
                << where;
            if (lo == hi) {
              EXPECT_GE(want.counts.band, 1u) << where;
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, ColumnSumsAddRowsInAscendingOrder) {
  // Every backend, portable included, against one scalar loop per column.
  // Two calls per case stand for two row blocks: sums carry across them.
  common::Rng rng(0xc01);
  std::vector<KernelBackend> backends = available_simd_backends();
  backends.push_back(KernelBackend::portable);
  for (std::size_t width : {0u, 1u, 3u, 4u, 8u, 17u, 33u, 64u, 100u}) {
    std::vector<double> minor(width);
    std::vector<double> major(width);
    for (std::size_t i = 0; i < width; ++i) {
      minor[i] = rng.uniform(-3.0, 3.0);
      major[i] = rng.uniform(-3.0, 3.0);
    }
    for (std::size_t rows : {0u, 1u, 63u, 64u, 65u, 200u}) {
      std::vector<std::vector<std::uint64_t>> blocks[2];
      std::vector<const std::uint64_t*> columns[2];
      for (int b = 0; b < 2; ++b) {
        for (std::size_t i = 0; i < width; ++i) {
          blocks[b].push_back(random_words(rng, (rows + 63) / 64));
        }
        for (const auto& column : blocks[b]) {
          columns[b].push_back(column.data());
        }
      }
      std::vector<double> want(width, 0.5);
      for (int b = 0; b < 2; ++b) {
        for (std::size_t i = 0; i < width; ++i) {
          for (std::size_t r = 0; r < rows; ++r) {
            const bool bit = ((blocks[b][i][r / 64] >> (r % 64)) & 1) != 0;
            want[i] += bit ? minor[i] : major[i];
          }
        }
      }
      for (KernelBackend backend : backends) {
        const KernelOps& ops = kernel_ops_for(backend);
        std::vector<double> got(width, 0.5);
        for (int b = 0; b < 2; ++b) {
          ops.column_sums(columns[b].data(), width, rows, minor.data(),
                          major.data(), got.data());
        }
        EXPECT_EQ(bits_of(got), bits_of(want))
            << kernel_backend_name(backend) << " width=" << width
            << " rows=" << rows;
      }
    }
  }
}

}  // namespace
}  // namespace gendpr::genome::kernels
