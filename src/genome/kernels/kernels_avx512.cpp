// AVX-512 kernels: the plane transpose (row gathers, an unpack network and
// vpmovb2m), native vpopcntq per-lane popcounts, and the LR selection's
// sweep and column sums, eight doubles per vector with the row bits as
// k-masks. Compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq only
// (see src/genome/CMakeLists.txt); the dispatcher checks ZMM state and the
// VPOPCNTDQ CPUID bit before calling in.
#include "genome/kernels/kernels_backend.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VPOPCNTDQ__)
#define GENDPR_AVX512_KERNELS 1
#include <immintrin.h>

#include <cstring>
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

// Full masks for the zero-masking unpacks: the plain 32- and 64-bit ones
// merge into _mm512_undefined_epi32(), which GCC 12 flags with a
// false-positive -Wuninitialized.
constexpr __mmask16 kAll16 = 0xffff;
constexpr __mmask8 kAll8 = 0xff;

/// Byte transpose of the block: qword p of rows[k] holds row 8p + k, and
/// byte r of columns[b] becomes byte b of row r. Three in-lane unpack
/// stages interleave bytes, then 16- and 32-bit units of vector pairs, so
/// qword e of lane m of an output holds byte b of the rows in qword
/// 2m + x of every input; a qword unpack of the x = 0 and x = 1 outputs
/// puts those rows in order.
void rows_to_byte_columns(const __m512i rows[8], __m512i columns[8]) {
  __m512i pairs[8];  // [2i + x]: rows[2i], rows[2i + 1] at qwords 2m + x
  for (int i = 0; i < 4; ++i) {
    pairs[2 * i] = _mm512_unpacklo_epi8(rows[2 * i], rows[2 * i + 1]);
    pairs[2 * i + 1] = _mm512_unpackhi_epi8(rows[2 * i], rows[2 * i + 1]);
  }
  __m512i quads[8];  // [4h + 2x + y]: rows[4h..4h+3], bytes 4y..4y+3
  for (int h = 0; h < 2; ++h) {
    for (int x = 0; x < 2; ++x) {
      const __m512i lo = pairs[4 * h + x];
      const __m512i hi = pairs[4 * h + 2 + x];
      quads[4 * h + 2 * x] = _mm512_unpacklo_epi16(lo, hi);
      quads[4 * h + 2 * x + 1] = _mm512_unpackhi_epi16(lo, hi);
    }
  }
  for (int y = 0; y < 2; ++y) {
    __m512i octets[2][2];  // [x][z]: bytes 4y + 2z + e in qword e
    for (int x = 0; x < 2; ++x) {
      const __m512i lo = quads[2 * x + y];
      const __m512i hi = quads[4 + 2 * x + y];
      octets[x][0] = _mm512_maskz_unpacklo_epi32(kAll16, lo, hi);
      octets[x][1] = _mm512_maskz_unpackhi_epi32(kAll16, lo, hi);
    }
    for (int z = 0; z < 2; ++z) {
      columns[4 * y + 2 * z] =
          _mm512_maskz_unpacklo_epi64(kAll8, octets[0][z], octets[1][z]);
      columns[4 * y + 2 * z + 1] =
          _mm512_maskz_unpackhi_epi64(kAll8, octets[0][z], octets[1][z]);
    }
  }
}

}  // namespace

void transpose_block_avx512(const std::uint8_t* rows, std::size_t row_stride,
                            std::size_t num_rows, std::size_t bytes,
                            std::uint64_t planes[64],
                            std::uint64_t counts[64]) {
  __m512i gathered[8];  // qword p of gathered[k] = row 8p + k
  if (bytes == 8) {
    // Whole 8-byte rows: one masked gather per vector, so rows past
    // num_rows are never touched and read as zero.
    const auto stride = static_cast<long long>(row_stride);
    const __m512i index =
        _mm512_setr_epi64(0, 8 * stride, 16 * stride, 24 * stride,
                          32 * stride, 40 * stride, 48 * stride, 56 * stride);
    for (std::size_t k = 0; k < 8; ++k) {
      const std::size_t live_rows = num_rows > k ? (num_rows - k + 7) / 8 : 0;
      const auto live = static_cast<__mmask8>((1u << live_rows) - 1);
      gathered[k] = _mm512_mask_i64gather_epi64(
          _mm512_setzero_si512(), live,
          _mm512_add_epi64(index,
                           _mm512_set1_epi64(static_cast<long long>(k) *
                                             stride)),
          rows, 1);
    }
  } else {
    // A row's last block: copy its `bytes` bytes, the rest stays zero.
    alignas(64) std::uint64_t staged[8][8] = {};
    for (std::size_t r = 0; r < num_rows; ++r) {
      std::memcpy(&staged[r % 8][r / 8], rows + r * row_stride, bytes);
    }
    for (std::size_t k = 0; k < 8; ++k) {
      gathered[k] = _mm512_load_si512(staged[k]);
    }
  }
  __m512i columns[8];
  rows_to_byte_columns(gathered, columns);
  // vpmovb2m takes bit 7 of every byte; a byte add moves the next bit up.
  for (std::size_t b = 0; b < 8; ++b) {
    __m512i bits = columns[b];
    for (std::size_t t = 8; t-- > 0;) {
      planes[8 * b + t] = _mm512_movepi8_mask(bits);
      bits = _mm512_add_epi8(bits, bits);
    }
  }
  for (std::size_t i = 0; i < 64; i += 8) {
    const __m512i sum =
        _mm512_add_epi64(_mm512_loadu_si512(counts + i),
                         _mm512_popcnt_epi64(_mm512_loadu_si512(planes + i)));
    _mm512_storeu_si512(counts + i, sum);
  }
}

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
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(words[i]));
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
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return count;
}

namespace {

std::size_t count(__mmask8 mask) {
  return static_cast<std::size_t>(_mm_popcnt_u32(mask));
}

/// Eight rows of the sweep; `live` masks off the rows past n in the tail.
template <bool kUndo>
inline void sweep8(double* scores, __mmask8 undo_bits, __mmask8 bits,
                   __mmask8 live, const __m512d undo[2], const __m512d add[2],
                   __m512d lo, __m512d hi, double* band,
                   SweepCounts& counts) {
  __m512d s = _mm512_maskz_loadu_pd(live, scores);
  if constexpr (kUndo) {
    s = _mm512_sub_pd(s, _mm512_mask_blend_pd(undo_bits, undo[0], undo[1]));
  }
  s = _mm512_add_pd(s, _mm512_mask_blend_pd(bits, add[0], add[1]));
  _mm512_mask_storeu_pd(scores, live, s);
  // Two compares on port 5, which the compress also needs; the counts
  // come from mask logic.
  const __mmask8 from_lo = _mm512_cmp_pd_mask(s, lo, _CMP_GE_OQ);
  const __mmask8 to_hi = _mm512_cmp_pd_mask(s, hi, _CMP_LE_OQ);
  const auto in = static_cast<__mmask8>(live & from_lo & to_hi);
  counts.below += count(static_cast<__mmask8>(live & ~from_lo));
  counts.above += count(static_cast<__mmask8>(live & ~to_hi));
  _mm512_mask_compressstoreu_pd(band + counts.band, in, s);
  counts.band += count(in);
}

template <bool kUndo>
SweepCounts sweep(double* scores, std::size_t n, const WeightedBits* undo,
                  const WeightedBits& add, double lo, double hi,
                  double* band) {
  __m512d undo_v[2] = {_mm512_setzero_pd(), _mm512_setzero_pd()};
  if constexpr (kUndo) {
    undo_v[0] = _mm512_set1_pd(undo->weight[0]);
    undo_v[1] = _mm512_set1_pd(undo->weight[1]);
  }
  const __m512d add_v[2] = {_mm512_set1_pd(add.weight[0]),
                            _mm512_set1_pd(add.weight[1])};
  const __m512d lo_v = _mm512_set1_pd(lo);
  const __m512d hi_v = _mm512_set1_pd(hi);
  SweepCounts counts;
  // One plane word per 64 rows; its eight bytes are the k-masks of eight
  // vectors.
  for (std::size_t base = 0; base < n; base += 64) {
    const std::uint64_t word = add.bits[base / 64];
    const std::uint64_t undo_word = kUndo ? undo->bits[base / 64] : 0;
    const std::size_t rows = n - base;
    if (rows >= 64) {
#pragma GCC unroll 8
      for (unsigned j = 0; j < 64; j += 8) {
        sweep8<kUndo>(scores + base + j, static_cast<__mmask8>(undo_word >> j),
                      static_cast<__mmask8>(word >> j), 0xff, undo_v, add_v,
                      lo_v, hi_v, band, counts);
      }
      continue;
    }
    for (unsigned j = 0; j < rows; j += 8) {
      const auto live = static_cast<__mmask8>(
          rows - j >= 8 ? 0xffu : (1u << (rows - j)) - 1);
      sweep8<kUndo>(scores + base + j, static_cast<__mmask8>(undo_word >> j),
                    static_cast<__mmask8>(word >> j), live, undo_v, add_v,
                    lo_v, hi_v, band, counts);
    }
  }
  return counts;
}

/// Columns per chunk of the column sums: four vectors, so four independent
/// add chains hide the add latency.
constexpr std::size_t kSumChunk = 32;

}  // namespace

SweepCounts sweep_scores_avx512(double* scores, std::size_t n,
                                const WeightedBits* undo,
                                const WeightedBits& add, double lo,
                                double hi, double* band) {
  return undo != nullptr ? sweep<true>(scores, n, undo, add, lo, hi, band)
                         : sweep<false>(scores, n, undo, add, lo, hi, band);
}

void column_sums_avx512(const std::uint64_t* const* columns,
                        std::size_t width, std::size_t rows,
                        const double* minor, const double* major,
                        double* sums) {
  constexpr std::size_t kVectors = kSumChunk / 8;
  for (std::size_t begin = 0; begin < width; begin += kSumChunk) {
    // A short last chunk runs padded with zero weights and zero bits; only
    // its real columns are stored back.
    const std::size_t chunk =
        width - begin < kSumChunk ? width - begin : kSumChunk;
    alignas(64) double minor_pad[kSumChunk] = {};
    alignas(64) double major_pad[kSumChunk] = {};
    alignas(64) double sum_pad[kSumChunk] = {};
    for (std::size_t i = 0; i < chunk; ++i) {
      minor_pad[i] = minor[begin + i];
      major_pad[i] = major[begin + i];
      sum_pad[i] = sums[begin + i];
    }
    __m512d minor_v[kVectors];
    __m512d major_v[kVectors];
    __m512d acc[kVectors];
    for (std::size_t v = 0; v < kVectors; ++v) {
      minor_v[v] = _mm512_load_pd(minor_pad + 8 * v);
      major_v[v] = _mm512_load_pd(major_pad + 8 * v);
      acc[v] = _mm512_load_pd(sum_pad + 8 * v);
    }
    alignas(64) std::uint64_t words[kSumChunk] = {};
    for (std::size_t base = 0; base < rows; base += 64) {
      for (std::size_t i = 0; i < chunk; ++i) {
        words[i] = columns[begin + i][base / 64];
      }
      __m512i word_v[kVectors];
      for (std::size_t v = 0; v < kVectors; ++v) {
        word_v[v] = _mm512_load_si512(words + 8 * v);
      }
      // Row k's bit is tested in place; doubling the probe moves it on
      // (a shift here trips GCC 12's -Wmaybe-uninitialized on
      // _mm512_undefined_epi32).
      __m512i probe = _mm512_set1_epi64(1);
      const std::size_t bits = rows - base < 64 ? rows - base : 64;
      for (std::size_t k = 0; k < bits; ++k) {
        for (std::size_t v = 0; v < kVectors; ++v) {
          const __mmask8 take_minor = _mm512_test_epi64_mask(word_v[v], probe);
          acc[v] = _mm512_add_pd(
              acc[v], _mm512_mask_blend_pd(take_minor, major_v[v], minor_v[v]));
        }
        probe = _mm512_add_epi64(probe, probe);
      }
    }
    for (std::size_t v = 0; v < kVectors; ++v) {
      _mm512_store_pd(sum_pad + 8 * v, acc[v]);
    }
    for (std::size_t i = 0; i < chunk; ++i) sums[begin + i] = sum_pad[i];
  }
}

#else  // !GENDPR_AVX512_KERNELS

// Stubs for builds without AVX-512 codegen; the dispatcher never calls them.
bool avx512_kernels_compiled() noexcept { return false; }

void transpose_block_avx512(const std::uint8_t*, std::size_t, std::size_t,
                            std::size_t, std::uint64_t*, std::uint64_t*) {}

std::uint64_t popcount_words_avx512(const std::uint64_t*, std::size_t) {
  return 0;
}

std::uint64_t and_popcount_words_avx512(const std::uint64_t*,
                                        const std::uint64_t*, std::size_t) {
  return 0;
}

SweepCounts sweep_scores_avx512(double*, std::size_t, const WeightedBits*,
                                const WeightedBits&, double, double,
                                double*) {
  return {};
}

void column_sums_avx512(const std::uint64_t* const*, std::size_t,
                        std::size_t, const double*, const double*, double*) {}

#endif  // GENDPR_AVX512_KERNELS

}  // namespace gendpr::genome::kernels::detail
