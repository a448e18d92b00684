// Portable-vs-SIMD kernel equivalence: every compiled-and-supported backend
// must agree bit for bit with the portable reference on randomized planes,
// transpose blocks of every shape, tail words, and degenerate
// all-zero/all-one inputs, and the LR kernels' doubles must match bit for
// bit too. Skipping unavailable backends (non-x86 hosts, old CPUs) keeps
// the suite green everywhere.
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

/// One transpose_block call: the 64 plane words, and `counts_before` with
/// the call's popcounts added.
struct TransposeRun {
  std::vector<std::uint64_t> planes;
  std::vector<std::uint64_t> counts;
};

TransposeRun run_transpose(const KernelOps& ops, const std::uint8_t* rows,
                           std::size_t stride, std::size_t num_rows,
                           std::size_t bytes,
                           const std::vector<std::uint64_t>& counts_before) {
  TransposeRun run;
  run.planes.assign(64, 0x5a5a5a5a5a5a5a5aull);  // every word is overwritten
  run.counts = counts_before;
  ops.transpose_block(rows, stride, num_rows, bytes, run.planes.data(),
                      run.counts.data());
  return run;
}

TEST(KernelsTest, TransposeMatchesPortable) {
  // Every backend against the portable kernel, and the portable kernel
  // against a bit-by-bit transpose. The rows sit at the very end of their
  // own heap buffer (the last row's last byte read is the buffer's last
  // byte), so a backend that reads past `bytes` or past num_rows trips
  // AddressSanitizer.
  common::Rng rng(0x7a5);
  const KernelOps& portable = kernel_ops_for(KernelBackend::portable);
  std::vector<KernelBackend> backends = available_simd_backends();
  backends.push_back(KernelBackend::portable);
  for (std::size_t bytes = 1; bytes <= 8; ++bytes) {
    for (std::size_t num_rows = 0; num_rows <= 64; ++num_rows) {
      for (std::size_t pad : {0u, 3u, 1242u}) {
        const std::size_t stride = bytes + pad;
        const std::size_t size =
            num_rows == 0 ? 1 : (num_rows - 1) * stride + bytes;
        std::vector<std::uint8_t> matrix(size);
        for (auto& byte : matrix) {
          byte = static_cast<std::uint8_t>(rng.next());
        }
        std::vector<std::uint64_t> counts_before(64);
        for (auto& count : counts_before) count = rng.next() >> 8;
        std::vector<std::uint64_t> want_planes(64, 0);
        for (std::size_t r = 0; r < num_rows; ++r) {
          for (std::size_t l = 0; l < 8 * bytes; ++l) {
            if ((matrix[r * stride + l / 8] >> (l % 8)) & 1) {
              want_planes[l] |= 1ull << r;
            }
          }
        }
        const TransposeRun want = run_transpose(
            portable, matrix.data(), stride, num_rows, bytes, counts_before);
        ASSERT_EQ(want.planes, want_planes)
            << "rows=" << num_rows << " bytes=" << bytes;
        for (std::size_t l = 0; l < 64; ++l) {
          ASSERT_EQ(want.counts[l] - counts_before[l],
                    static_cast<std::uint64_t>(std::popcount(want_planes[l])));
        }
        for (KernelBackend backend : backends) {
          const TransposeRun got =
              run_transpose(kernel_ops_for(backend), matrix.data(), stride,
                            num_rows, bytes, counts_before);
          EXPECT_EQ(got.planes, want.planes)
              << kernel_backend_name(backend) << " rows=" << num_rows
              << " bytes=" << bytes << " stride=" << stride;
          EXPECT_EQ(got.counts, want.counts)
              << kernel_backend_name(backend) << " rows=" << num_rows
              << " bytes=" << bytes << " stride=" << stride;
        }
      }
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
