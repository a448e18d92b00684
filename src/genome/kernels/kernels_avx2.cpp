// AVX2 kernels: Harley-Seal carry-save popcount with the vpshufb nibble-LUT
// digit counter. Compiled with -mavx2 only
// (see src/genome/CMakeLists.txt); the dispatcher guarantees the CPU and OS
// support YMM state before any function here is called.
#include "genome/kernels/kernels_backend.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <bit>
#endif

namespace gendpr::genome::kernels::detail {

#if defined(__AVX2__)

bool avx2_kernels_compiled() noexcept { return true; }

namespace {

/// Per-byte popcount via two vpshufb nibble lookups, horizontally summed
/// into four u64 lanes with vpsadbw (Mula's method).
inline __m256i popcount256(__m256i v) noexcept {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// One carry-save adder step: (carry, sum) of three bit-vectors.
inline void csa256(__m256i a, __m256i b, __m256i c, __m256i* carry,
                   __m256i* sum) noexcept {
  const __m256i u = _mm256_xor_si256(a, b);
  *sum = _mm256_xor_si256(u, c);
  *carry = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
}

inline std::uint64_t reduce_add256(__m256i v) noexcept {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Harley-Seal over 16 vectors (64 words) per iteration: the CSA tree packs
/// 16 input vectors into one ones/twos/fours/eights/sixteens column-count,
/// so the expensive per-byte popcount runs once per 16 loads. `load(i)`
/// supplies the i-th 256-bit block, which lets the AND-popcount variant fuse
/// the intersection into the loads.
template <typename LoadFn>
inline std::uint64_t harley_seal(std::size_t vectors, LoadFn load) noexcept {
  __m256i total = _mm256_setzero_si256();
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= vectors; i += 16) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    csa256(load(i + 0), load(i + 1), ones, &twos_a, &ones);
    csa256(load(i + 2), load(i + 3), ones, &twos_b, &ones);
    csa256(twos_a, twos_b, twos, &fours_a, &twos);
    csa256(load(i + 4), load(i + 5), ones, &twos_a, &ones);
    csa256(load(i + 6), load(i + 7), ones, &twos_b, &ones);
    csa256(twos_a, twos_b, twos, &fours_b, &twos);
    csa256(fours_a, fours_b, fours, &eights_a, &fours);
    csa256(load(i + 8), load(i + 9), ones, &twos_a, &ones);
    csa256(load(i + 10), load(i + 11), ones, &twos_b, &ones);
    csa256(twos_a, twos_b, twos, &fours_a, &twos);
    csa256(load(i + 12), load(i + 13), ones, &twos_a, &ones);
    csa256(load(i + 14), load(i + 15), ones, &twos_b, &ones);
    csa256(twos_a, twos_b, twos, &fours_b, &twos);
    csa256(fours_a, fours_b, fours, &eights_b, &fours);
    csa256(eights_a, eights_b, eights, &sixteens, &eights);
    total = _mm256_add_epi64(total, popcount256(sixteens));
  }
  total = _mm256_slli_epi64(total, 4);
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(eights), 3));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(twos), 1));
  total = _mm256_add_epi64(total, popcount256(ones));
  for (; i < vectors; ++i) {
    total = _mm256_add_epi64(total, popcount256(load(i)));
  }
  return reduce_add256(total);
}

}  // namespace

std::uint64_t popcount_words_avx2(const std::uint64_t* words, std::size_t n) {
  const std::size_t vectors = n / 4;
  std::uint64_t count = harley_seal(vectors, [words](std::size_t i) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + i * 4));
  });
  for (std::size_t i = vectors * 4; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return count;
}

std::uint64_t and_popcount_words_avx2(const std::uint64_t* a,
                                      const std::uint64_t* b, std::size_t n) {
  const std::size_t vectors = n / 4;
  std::uint64_t count = harley_seal(vectors, [a, b](std::size_t i) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i * 4));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i * 4));
    return _mm256_and_si256(va, vb);
  });
  for (std::size_t i = vectors * 4; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

#else  // !defined(__AVX2__)

// Stubs for builds without AVX2 codegen; the dispatcher never calls them.
bool avx2_kernels_compiled() noexcept { return false; }

std::uint64_t popcount_words_avx2(const std::uint64_t*, std::size_t) {
  return 0;
}

std::uint64_t and_popcount_words_avx2(const std::uint64_t*,
                                      const std::uint64_t*, std::size_t) {
  return 0;
}

#endif  // defined(__AVX2__)

}  // namespace gendpr::genome::kernels::detail
