// Portable-vs-SIMD kernel equivalence: every compiled-and-supported backend
// must agree bit for bit with the portable reference on randomized planes,
// tail words, and degenerate all-zero/all-one inputs. Skipping unavailable
// backends (non-x86 hosts, old CPUs) keeps the suite green everywhere.
#include "genome/kernels/kernels.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace gendpr::genome::kernels
