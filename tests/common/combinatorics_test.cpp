#include "common/combinatorics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace gendpr::common {
namespace {

/// Binomial coefficient C(n, k) as a 64-bit value (no saturation: the
/// federation sizes here stay small). Returns 0 for k > n. The count
/// combinations() must produce.
std::uint64_t binomial(unsigned n, unsigned k) noexcept {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (unsigned i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
  }
  return result;
}


TEST(BinomialTest, SmallValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(7, 3), 35u);
  EXPECT_EQ(binomial(10, 5), 252u);
}

TEST(BinomialTest, KGreaterThanNIsZero) {
  EXPECT_EQ(binomial(3, 4), 0u);
}

TEST(BinomialTest, PascalIdentity) {
  for (unsigned n = 1; n < 20; ++n) {
    for (unsigned k = 1; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(CombinationsTest, CountMatchesBinomial) {
  for (std::size_t n = 0; n <= 8; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      EXPECT_EQ(combinations(n, k).size(),
                binomial(static_cast<unsigned>(n), static_cast<unsigned>(k)))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(CombinationsTest, KZeroYieldsEmptySubset) {
  const auto result = combinations(5, 0);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result[0].empty());
}

TEST(CombinationsTest, KGreaterThanNEmpty) {
  EXPECT_TRUE(combinations(3, 4).empty());
}

TEST(CombinationsTest, FullSubset) {
  const auto result = combinations(4, 4);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(CombinationsTest, KnownEnumeration) {
  const auto result = combinations(4, 2);
  const std::vector<std::vector<std::size_t>> expected = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  EXPECT_EQ(result, expected);
}

TEST(CombinationsTest, AllSubsetsDistinctAndSorted) {
  const auto result = combinations(7, 3);
  std::set<std::vector<std::size_t>> unique(result.begin(), result.end());
  EXPECT_EQ(unique.size(), result.size());
  for (const auto& subset : result) {
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
    for (std::size_t v : subset) EXPECT_LT(v, 7u);
  }
}

TEST(CombinationsTest, LexicographicOrder) {
  const auto result = combinations(6, 2);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
}

}  // namespace
}  // namespace gendpr::common
