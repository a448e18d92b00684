#include "genome/bitplanes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ld_reference.hpp"
#include "lr_reference.hpp"
#include "stats/ld.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::genome {
namespace {

GenotypeMatrix random_matrix(common::Rng& rng, std::size_t n, std::size_t l,
                             double density) {
  GenotypeMatrix m(n, l);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < l; ++j) {
      if (rng.bernoulli(density)) m.set(i, j, true);
    }
  }
  return m;
}

/// Population sizes around the 64-bit word boundary, plus degenerate ones:
/// the tail-word masking has to hold at every alignment.
const std::size_t kPopulationSizes[] = {0, 1, 7, 63, 64, 65, 128, 200};

/// SNP counts around the transpose's 64-SNP block: one partial block, one
/// full block, a full block plus one SNP, and three blocks.
const std::size_t kSnpCounts[] = {17, 63, 64, 65, 130};

/// Checks every plane word of `planes` against rows [begin, end) of `m`,
/// set bit by bit from get(), including the zero bits past the last row.
void expect_planes_of_rows(const BitPlanes& planes, const GenotypeMatrix& m,
                           std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  ASSERT_EQ(planes.num_individuals(), n);
  ASSERT_EQ(planes.num_snps(), m.num_snps());
  ASSERT_EQ(planes.words_per_plane(), (n + 63) / 64);
  for (std::size_t l = 0; l < m.num_snps(); ++l) {
    std::vector<std::uint64_t> want(planes.words_per_plane(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (m.get(begin + i, l)) want[i / 64] |= 1ull << (i % 64);
    }
    for (std::size_t w = 0; w < want.size(); ++w) {
      ASSERT_EQ(planes.plane(l)[w], want[w])
          << "rows [" << begin << ", " << end << ") snp " << l << " word " << w;
    }
    if (n % 64 != 0) {
      EXPECT_EQ(planes.plane(l)[n / 64] >> (n % 64), 0u) << "snp " << l;
    }
  }
}

TEST(BitPlanesTest, GetMatchesMatrix) {
  common::Rng rng(11);
  for (std::size_t l : kSnpCounts) {
    for (std::size_t n : kPopulationSizes) {
      const GenotypeMatrix m = random_matrix(rng, n, l, 0.4);
      expect_planes_of_rows(BitPlanes(m), m, 0, n);
    }
  }
}

TEST(BitPlanesTest, RowRangeBuildMatchesGet) {
  // A GDO's planes come straight from its row range of the pooled matrix;
  // ranges start off byte and word boundaries and end anywhere.
  common::Rng rng(17);
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 200}, {3, 70}, {13, 13}, {67, 131}, {129, 200}, {199, 200}};
  for (std::size_t l : kSnpCounts) {
    const GenotypeMatrix m = random_matrix(rng, 200, l, 0.5);
    for (const auto& [begin, end] : ranges) {
      const BitPlanes planes(m, begin, end);
      expect_planes_of_rows(planes, m, begin, end);
      EXPECT_EQ(planes.allele_counts(),
                m.slice_rows(begin, end).allele_counts());
    }
  }
}

TEST(BitPlanesTest, PoolBuildMatchesSerial) {
  // A pooled build gives each worker one contiguous range of 64-SNP blocks.
  // L = 17, 63 and 64 are a single block and L = 65 two, so the larger
  // pools run more tasks than there are blocks and some ranges are empty.
  common::Rng rng(19);
  const std::size_t snp_counts[] = {17, 63, 64, 65, 130, 1000};
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 200}, {3, 70}, {13, 13}, {67, 131}, {129, 200}};
  for (std::size_t threads : {1, 2, 3, 5}) {
    common::ThreadPool pool(threads);
    for (std::size_t l : snp_counts) {
      const GenotypeMatrix m = random_matrix(rng, 200, l, 0.5);
      for (const auto& [begin, end] : ranges) {
        const BitPlanes serial(m, begin, end);
        const BitPlanes pooled(m, begin, end, &pool);
        ASSERT_EQ(pooled.words_per_plane(), serial.words_per_plane());
        ASSERT_EQ(pooled.num_snps(), serial.num_snps());
        const std::size_t words = l * serial.words_per_plane();
        EXPECT_TRUE(std::equal(pooled.plane(0), pooled.plane(0) + words,
                               serial.plane(0)))
            << threads << " threads, L=" << l << ", rows [" << begin << ", "
            << end << ")";
        EXPECT_EQ(pooled.allele_counts(), serial.allele_counts());
        EXPECT_EQ(pooled.tile(0, l).total_allele_count(),
                  serial.tile(0, l).total_allele_count());
        expect_planes_of_rows(pooled, m, begin, end);
      }
    }
  }
}

/// Shapes across the build's loop (groups of 8 words = 512 rows, with the
/// 64-SNP blocks inner): populations just below, on and above one group and
/// over two, ranges that start off word and group boundaries or end at the
/// matrix's last row, and SNP counts off the byte boundary whose last block
/// holds 1, 7 or 57 SNPs. L = 505 is 8 blocks, more than the largest pool.
const std::size_t kGroupSnpCounts[] = {65, 71, 121, 505};
const std::pair<std::size_t, std::size_t> kGroupRanges[] = {
    {0, 511}, {0, 512}, {0, 513}, {0, 1100}, {1, 1100},
    {37, 549}, {500, 1025}, {511, 1100}, {1000, 1100}, {1099, 1100}};

TEST(BitPlanesTest, RowRangeBuildCrossesWordGroups) {
  common::Rng rng(23);
  for (std::size_t l : kGroupSnpCounts) {
    const GenotypeMatrix m = random_matrix(rng, 1100, l, 0.5);
    for (const auto& [begin, end] : kGroupRanges) {
      const BitPlanes planes(m, begin, end);
      expect_planes_of_rows(planes, m, begin, end);
      EXPECT_EQ(planes.allele_counts(),
                m.slice_rows(begin, end).allele_counts());
    }
  }
}

TEST(BitPlanesTest, PoolBuildCrossesWordGroups) {
  // A pooled build gives each worker one contiguous range of 64-SNP blocks,
  // and each worker's loop crosses the 512-row groups of its blocks. At
  // L = 65, 71 and 121 (2 blocks) the larger pools leave workers idle; at
  // L = 505 (8 blocks) every worker of every pool gets blocks, and the last
  // worker's range ends with the 57-SNP tail block.
  common::Rng rng(29);
  for (std::size_t threads : {1, 2, 3, 5}) {
    common::ThreadPool pool(threads);
    for (std::size_t l : kGroupSnpCounts) {
      const GenotypeMatrix m = random_matrix(rng, 1100, l, 0.5);
      for (const auto& [begin, end] : kGroupRanges) {
        const BitPlanes serial(m, begin, end);
        const BitPlanes pooled(m, begin, end, &pool);
        ASSERT_EQ(pooled.words_per_plane(), serial.words_per_plane());
        const std::size_t words = l * serial.words_per_plane();
        EXPECT_TRUE(std::equal(pooled.plane(0), pooled.plane(0) + words,
                               serial.plane(0)))
            << threads << " threads, L=" << l << ", rows [" << begin << ", "
            << end << ")";
        EXPECT_EQ(pooled.allele_counts(), serial.allele_counts());
        EXPECT_EQ(pooled.tile(0, l).total_allele_count(),
                  serial.tile(0, l).total_allele_count());
        EXPECT_EQ(pooled.storage_bytes(), serial.storage_bytes());
        expect_planes_of_rows(pooled, m, begin, end);
      }
    }
  }
}

TEST(BitPlanesTest, AlleleCountsBitIdenticalToScalar) {
  common::Rng rng(12);
  for (std::size_t n : kPopulationSizes) {
    const GenotypeMatrix m = random_matrix(rng, n, 33, 0.3);
    const BitPlanes planes(m);
    EXPECT_EQ(planes.allele_counts(), m.allele_counts()) << "n=" << n;
    for (std::size_t l = 0; l < 33; ++l) {
      EXPECT_EQ(planes.allele_count(l), m.allele_count(l));
    }
  }
}

TEST(BitPlanesTest, TailWordBitsStaySilent) {
  // 65 individuals, all carriers: the second word of each plane holds exactly
  // one live bit; anything more would corrupt every popcount-based kernel.
  GenotypeMatrix m(65, 3);
  for (std::size_t i = 0; i < 65; ++i) {
    for (std::size_t l = 0; l < 3; ++l) m.set(i, l, true);
  }
  const BitPlanes planes(m);
  ASSERT_EQ(planes.words_per_plane(), 2u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(planes.allele_count(l), 65u);
    EXPECT_EQ(planes.plane(l)[1], 1ull);
  }
}

TEST(BitPlanesTest, PairCountMatchesBruteForce) {
  common::Rng rng(14);
  for (std::size_t n : kPopulationSizes) {
    const GenotypeMatrix m = random_matrix(rng, n, 9, 0.5);
    const BitPlanes planes(m);
    for (std::size_t a = 0; a < 9; ++a) {
      for (std::size_t b = 0; b < 9; ++b) {
        std::uint32_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (m.get(i, a) && m.get(i, b)) ++expected;
        }
        EXPECT_EQ(planes.pair_count(a, b), expected)
            << "n=" << n << " pair (" << a << "," << b << ")";
      }
    }
  }
}

TEST(BitPlanesTest, LdMomentsBitIdenticalToScalar) {
  common::Rng rng(15);
  for (std::size_t n : kPopulationSizes) {
    const GenotypeMatrix m = random_matrix(rng, n, 12, 0.35);
    const BitPlanes planes(m);
    for (std::uint32_t a = 0; a + 1 < 12; ++a) {
      const stats::LdMoments scalar = stats::compute_ld_moments(m, a, a + 1);
      const stats::LdMoments plane =
          stats::compute_ld_moments(planes, a, a + 1);
      EXPECT_EQ(scalar.n, plane.n);
      // Sums of 0/1 are exact in double, so equality must be exact too.
      EXPECT_EQ(scalar.mu_x, plane.mu_x) << "n=" << n << " a=" << a;
      EXPECT_EQ(scalar.mu_y, plane.mu_y);
      EXPECT_EQ(scalar.mu_xy, plane.mu_xy);
      EXPECT_EQ(scalar.mu_x2, plane.mu_x2);
      EXPECT_EQ(scalar.mu_y2, plane.mu_y2);
    }
  }
}

TEST(BitPlanesTest, LrMatrixBitIdenticalToScalar) {
  common::Rng rng(16);
  for (std::size_t n : kPopulationSizes) {
    const GenotypeMatrix m = random_matrix(rng, n, 20, 0.3);
    const BitPlanes planes(m);
    std::vector<std::uint32_t> snps = {2, 19, 0, 7, 13};
    std::vector<double> case_freq(snps.size()), ref_freq(snps.size());
    for (std::size_t i = 0; i < snps.size(); ++i) {
      case_freq[i] = rng.uniform();
      ref_freq[i] = rng.uniform();
    }
    const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);
    EXPECT_EQ(stats::build_lr_matrix(planes, snps, weights),
              stats::reference::scalar_lr_matrix(m, snps, weights))
        << "n=" << n;
  }
}

TEST(BitPlanesTest, EmptyAndDegenerateInputs) {
  const GenotypeMatrix empty_rows(0, 6);
  const BitPlanes planes(empty_rows);
  EXPECT_EQ(planes.words_per_plane(), 0u);
  EXPECT_EQ(planes.allele_counts(), std::vector<std::uint32_t>(6, 0));
  EXPECT_EQ(planes.pair_count(0, 5), 0u);
  const stats::LdMoments moments = stats::compute_ld_moments(planes, 0, 1);
  EXPECT_EQ(moments.n, 0u);
  EXPECT_EQ(moments.mu_xy, 0.0);

  const GenotypeMatrix no_snps(5, 0);
  const BitPlanes empty_planes(no_snps);
  EXPECT_TRUE(empty_planes.allele_counts().empty());

  const BitPlanes default_planes;
  EXPECT_EQ(default_planes.num_individuals(), 0u);
  EXPECT_EQ(default_planes.num_snps(), 0u);
}

TEST(BitPlanesTest, StorageMatchesPackedMatrixScale) {
  // The transpose costs about as much memory as the packed matrix itself
  // (both are one bit per genotype, modulo tail padding + the count cache
  // and its tile-total prefix array).
  const GenotypeMatrix m(1000, 500);
  const BitPlanes planes(m);
  EXPECT_EQ(planes.storage_bytes(),
            500u * ((1000u + 63u) / 64u) * 8u + 500u * 4u + 501u * 8u);
}

}  // namespace
}  // namespace gendpr::genome
