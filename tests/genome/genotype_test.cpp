#include "genome/genotype.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace gendpr::genome {
namespace {

TEST(GenotypeMatrixTest, DefaultIsAllMajor) {
  GenotypeMatrix m(10, 20);
  for (std::size_t n = 0; n < 10; ++n) {
    for (std::size_t l = 0; l < 20; ++l) {
      EXPECT_FALSE(m.get(n, l));
    }
  }
}

TEST(GenotypeMatrixTest, SetGetRoundTrip) {
  GenotypeMatrix m(4, 11);
  m.set(0, 0, true);
  m.set(3, 10, true);
  m.set(1, 7, true);
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_TRUE(m.get(3, 10));
  EXPECT_TRUE(m.get(1, 7));
  EXPECT_FALSE(m.get(0, 1));
  m.set(1, 7, false);
  EXPECT_FALSE(m.get(1, 7));
}

TEST(GenotypeMatrixTest, SetDoesNotDisturbNeighbours) {
  GenotypeMatrix m(1, 16);
  m.set(0, 5, true);
  m.set(0, 6, true);
  m.set(0, 5, false);
  EXPECT_FALSE(m.get(0, 5));
  EXPECT_TRUE(m.get(0, 6));
  EXPECT_FALSE(m.get(0, 4));
}

TEST(GenotypeMatrixTest, AlleleCountSingleSnp) {
  GenotypeMatrix m(5, 3);
  m.set(0, 1, true);
  m.set(2, 1, true);
  m.set(4, 1, true);
  EXPECT_EQ(m.allele_count(1), 3u);
  EXPECT_EQ(m.allele_count(0), 0u);
}

TEST(GenotypeMatrixTest, AlleleCountsMatchPerSnpCounts) {
  common::Rng rng(5);
  GenotypeMatrix m(50, 37);
  for (std::size_t n = 0; n < 50; ++n) {
    for (std::size_t l = 0; l < 37; ++l) {
      if (rng.bernoulli(0.3)) m.set(n, l, true);
    }
  }
  const auto counts = m.allele_counts();
  ASSERT_EQ(counts.size(), 37u);
  for (std::size_t l = 0; l < 37; ++l) {
    EXPECT_EQ(counts[l], m.allele_count(l)) << "snp " << l;
  }
}

TEST(GenotypeMatrixTest, SubsetAlleleCounts) {
  common::Rng rng(6);
  GenotypeMatrix m(30, 20);
  for (std::size_t n = 0; n < 30; ++n) {
    for (std::size_t l = 0; l < 20; ++l) {
      if (rng.bernoulli(0.4)) m.set(n, l, true);
    }
  }
  const std::vector<std::uint32_t> subset = {3, 7, 19};
  const auto counts = m.allele_counts(subset);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], m.allele_count(3));
  EXPECT_EQ(counts[1], m.allele_count(7));
  EXPECT_EQ(counts[2], m.allele_count(19));
}

TEST(GenotypeMatrixTest, SliceRowsPreservesContent) {
  common::Rng rng(7);
  GenotypeMatrix m(10, 13);
  for (std::size_t n = 0; n < 10; ++n) {
    for (std::size_t l = 0; l < 13; ++l) {
      if (rng.bernoulli(0.5)) m.set(n, l, true);
    }
  }
  const GenotypeMatrix slice = m.slice_rows(3, 7);
  EXPECT_EQ(slice.num_individuals(), 4u);
  EXPECT_EQ(slice.num_snps(), 13u);
  for (std::size_t n = 0; n < 4; ++n) {
    for (std::size_t l = 0; l < 13; ++l) {
      EXPECT_EQ(slice.get(n, l), m.get(n + 3, l));
    }
  }
}

TEST(GenotypeMatrixTest, SlicesPartitionCounts) {
  common::Rng rng(8);
  GenotypeMatrix m(21, 9);
  for (std::size_t n = 0; n < 21; ++n) {
    for (std::size_t l = 0; l < 9; ++l) {
      if (rng.bernoulli(0.25)) m.set(n, l, true);
    }
  }
  const auto top = m.slice_rows(0, 10).allele_counts();
  const auto bottom = m.slice_rows(10, 21).allele_counts();
  const auto full = m.allele_counts();
  for (std::size_t l = 0; l < 9; ++l) {
    EXPECT_EQ(top[l] + bottom[l], full[l]);
  }
}

TEST(GenotypeMatrixTest, PackedStorageIsEighth) {
  // One bit per genotype: 800 SNPs take 100 bytes per row.
  GenotypeMatrix packed(100, 800);
  EXPECT_EQ(packed.storage_bytes(), 100u * 100u);
}

TEST(GenotypeMatrixTest, NonByteAlignedWidth) {
  // 13 SNPs does not fill whole bytes; the padding bits must stay silent.
  GenotypeMatrix m(2, 13);
  for (std::size_t l = 0; l < 13; ++l) m.set(0, l, true);
  EXPECT_EQ(m.allele_counts().size(), 13u);
  for (std::size_t l = 0; l < 13; ++l) {
    EXPECT_EQ(m.allele_count(l), 1u);
    EXPECT_FALSE(m.get(1, l));
  }
}

TEST(GenotypeMatrixTest, EqualityOperator) {
  GenotypeMatrix a(3, 5);
  GenotypeMatrix b(3, 5);
  EXPECT_EQ(a, b);
  a.set(1, 2, true);
  EXPECT_NE(a, b);
  b.set(1, 2, true);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gendpr::genome
