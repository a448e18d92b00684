// AVX-512 kernels: native vpopcntq per-lane popcounts. Compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq only
// (see src/genome/CMakeLists.txt); the dispatcher checks ZMM state and the
// VPOPCNTDQ CPUID bit before calling in.
#include "genome/kernels/kernels_backend.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)
#define GENDPR_AVX512_KERNELS 1
#include <immintrin.h>

#include <bit>
#endif

namespace gendpr::genome::kernels::detail {

#if defined(GENDPR_AVX512_KERNELS)

bool avx512_kernels_compiled() noexcept { return true; }

namespace {

/// Sum of the eight 64-bit lanes. Stored and summed in scalar code instead
/// of _mm512_reduce_add_epi64, whose expansion GCC 12 flags with a
/// false-positive -Wuninitialized; integer addition makes both exact.
std::uint64_t sum_lanes(__m512i v) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  std::uint64_t sum = 0;
  for (std::uint64_t lane : lanes) sum += lane;
  return sum;
}

}  // namespace

std::uint64_t popcount_words_avx512(const std::uint64_t* words,
                                    std::size_t n) {
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(words + i);
    total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
  }
  std::uint64_t count = sum_lanes(total);
  for (; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return count;
}

std::uint64_t and_popcount_words_avx512(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::size_t n) {
  __m512i total = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v =
        _mm512_and_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
  }
  std::uint64_t count = sum_lanes(total);
  for (; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

#else  // !GENDPR_AVX512_KERNELS

// Stubs for builds without AVX-512 codegen; the dispatcher never calls them.
bool avx512_kernels_compiled() noexcept { return false; }

std::uint64_t popcount_words_avx512(const std::uint64_t*, std::size_t) {
  return 0;
}

std::uint64_t and_popcount_words_avx512(const std::uint64_t*,
                                        const std::uint64_t*, std::size_t) {
  return 0;
}

#endif  // GENDPR_AVX512_KERNELS

}  // namespace gendpr::genome::kernels::detail
