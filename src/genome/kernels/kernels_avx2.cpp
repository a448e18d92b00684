// AVX2 kernels: the plane transpose (an unpack network and vpmovmskb),
// Harley-Seal carry-save popcount with the vpshufb nibble-LUT digit
// counter, and the LR selection's sweep and column sums, four doubles per
// vector selected by sign-bit blends. Compiled with -mavx2 only
// (see src/genome/CMakeLists.txt); the dispatcher guarantees the CPU and OS
// support YMM state before any function here is called.
#include "genome/kernels/kernels_backend.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <cstring>
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

/// Per 4-bit row mask: the blend mask (lane j all ones when bit j is set)
/// and the vpermd indices that move the set lanes' doubles to the front,
/// in lane order.
struct NibbleTables {
  alignas(32) std::uint64_t select[16][4];
  alignas(32) std::int32_t compress[16][8];
};

constexpr NibbleTables make_nibble_tables() {
  NibbleTables tables{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      const bool set = ((mask >> lane) & 1) != 0;
      tables.select[mask][lane] = set ? ~std::uint64_t{0} : 0;
      if (set) {
        tables.compress[mask][2 * out] = 2 * lane;
        tables.compress[mask][2 * out + 1] = 2 * lane + 1;
        ++out;
      }
    }
  }
  return tables;
}

constexpr NibbleTables kNibble = make_nibble_tables();

inline __m256d select_mask(unsigned nibble) noexcept {
  return _mm256_load_pd(
      reinterpret_cast<const double*>(kNibble.select[nibble]));
}

/// Four rows of the sweep; `undo_bits` and `bits` are their 4-bit masks.
template <bool kUndo>
inline void sweep4(double* scores, unsigned undo_bits, unsigned bits,
                   const __m256d undo[2], const __m256d add[2], __m256d lo,
                   __m256d hi, double* band, std::size_t& in_band,
                   __m256i& from_lo_count, __m256i& to_hi_count) {
  __m256d s = _mm256_loadu_pd(scores);
  if constexpr (kUndo) {
    s = _mm256_sub_pd(
        s, _mm256_blendv_pd(undo[0], undo[1], select_mask(undo_bits)));
  }
  s = _mm256_add_pd(s, _mm256_blendv_pd(add[0], add[1], select_mask(bits)));
  _mm256_storeu_pd(scores, s);
  // Compare masks are all ones (-1) per lane that holds: subtracting them
  // counts the rows from lo and to hi, and the caller takes the rest.
  const __m256d from_lo = _mm256_cmp_pd(s, lo, _CMP_GE_OQ);
  const __m256d to_hi = _mm256_cmp_pd(s, hi, _CMP_LE_OQ);
  from_lo_count =
      _mm256_sub_epi64(from_lo_count, _mm256_castpd_si256(from_lo));
  to_hi_count = _mm256_sub_epi64(to_hi_count, _mm256_castpd_si256(to_hi));
  const auto in = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_and_pd(from_lo, to_hi)));
  // All four lanes are stored; in_band is at most this vector's first row,
  // so they land inside the n doubles the band has room for.
  const __m256i order = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kNibble.compress[in]));
  _mm256_storeu_pd(band + in_band,
                   _mm256_castps_pd(_mm256_permutevar8x32_ps(
                       _mm256_castpd_ps(s), order)));
  in_band += static_cast<std::size_t>(_mm_popcnt_u32(in));
}

template <bool kUndo>
SweepCounts sweep(double* scores, std::size_t n, const WeightedBits* undo,
                  const WeightedBits& add, double lo, double hi,
                  double* band) {
  __m256d undo_v[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
  if constexpr (kUndo) {
    undo_v[0] = _mm256_set1_pd(undo->weight[0]);
    undo_v[1] = _mm256_set1_pd(undo->weight[1]);
  }
  const __m256d add_v[2] = {_mm256_set1_pd(add.weight[0]),
                            _mm256_set1_pd(add.weight[1])};
  const __m256d lo_v = _mm256_set1_pd(lo);
  const __m256d hi_v = _mm256_set1_pd(hi);
  __m256i from_lo_count = _mm256_setzero_si256();
  __m256i to_hi_count = _mm256_setzero_si256();
  std::size_t in_band = 0;
  // One plane word per 64 rows; its sixteen nibbles select for sixteen
  // vectors.
  std::size_t r = 0;
  for (; r + 64 <= n; r += 64) {
    const std::uint64_t word = add.bits[r / 64];
    const std::uint64_t undo_word = kUndo ? undo->bits[r / 64] : 0;
#pragma GCC unroll 16
    for (unsigned j = 0; j < 64; j += 4) {
      sweep4<kUndo>(scores + r + j,
                    static_cast<unsigned>(undo_word >> j) & 0xfu,
                    static_cast<unsigned>(word >> j) & 0xfu, undo_v, add_v,
                    lo_v, hi_v, band, in_band, from_lo_count,
                    to_hi_count);
    }
  }
  for (; r + 4 <= n; r += 4) {
    const std::size_t shift = r % 64;
    sweep4<kUndo>(
        scores + r,
        kUndo ? static_cast<unsigned>(undo->bits[r / 64] >> shift) & 0xfu : 0,
        static_cast<unsigned>(add.bits[r / 64] >> shift) & 0xfu, undo_v,
        add_v, lo_v, hi_v, band, in_band, from_lo_count, to_hi_count);
  }
  SweepCounts counts;
  counts.below = r - reduce_add256(from_lo_count);
  counts.above = r - reduce_add256(to_hi_count);
  counts.band = in_band;
  // The last n % 4 rows, one at a time as the portable kernel runs them.
  for (; r < n; ++r) {
    const std::size_t shift = r % 64;
    double s = scores[r];
    if constexpr (kUndo) s -= undo->weight[(undo->bits[r / 64] >> shift) & 1];
    s += add.weight[(add.bits[r / 64] >> shift) & 1];
    scores[r] = s;
    const bool from_lo = s >= lo;
    const bool to_hi = s <= hi;
    counts.below += from_lo ? 0 : 1;
    counts.above += to_hi ? 0 : 1;
    band[counts.band] = s;
    counts.band += from_lo && to_hi ? 1 : 0;
  }
  return counts;
}

/// Columns per chunk of the column sums: four vectors, so four independent
/// add chains hide the add latency.
constexpr std::size_t kSumChunk = 16;

/// Byte transpose of 32 rows: qword p of rows[k] holds row 8p + k, and
/// byte r of columns[b] becomes byte b of row r. Three in-lane unpack
/// stages interleave bytes, then 16- and 32-bit units of vector pairs, so
/// qword e of lane m of an output holds byte b of the rows in qword
/// 2m + x of every input; a qword unpack of the x = 0 and x = 1 outputs
/// puts those rows in order.
inline void rows_to_byte_columns(const __m256i rows[8], __m256i columns[8]) {
  __m256i pairs[8];  // [2i + x]: rows[2i], rows[2i + 1] at qwords 2m + x
  for (int i = 0; i < 4; ++i) {
    pairs[2 * i] = _mm256_unpacklo_epi8(rows[2 * i], rows[2 * i + 1]);
    pairs[2 * i + 1] = _mm256_unpackhi_epi8(rows[2 * i], rows[2 * i + 1]);
  }
  __m256i quads[8];  // [4h + 2x + y]: rows[4h..4h+3], bytes 4y..4y+3
  for (int h = 0; h < 2; ++h) {
    for (int x = 0; x < 2; ++x) {
      const __m256i lo = pairs[4 * h + x];
      const __m256i hi = pairs[4 * h + 2 + x];
      quads[4 * h + 2 * x] = _mm256_unpacklo_epi16(lo, hi);
      quads[4 * h + 2 * x + 1] = _mm256_unpackhi_epi16(lo, hi);
    }
  }
  for (int y = 0; y < 2; ++y) {
    __m256i octets[2][2];  // [x][z]: bytes 4y + 2z + e in qword e
    for (int x = 0; x < 2; ++x) {
      const __m256i lo = quads[2 * x + y];
      const __m256i hi = quads[4 + 2 * x + y];
      octets[x][0] = _mm256_unpacklo_epi32(lo, hi);
      octets[x][1] = _mm256_unpackhi_epi32(lo, hi);
    }
    for (int z = 0; z < 2; ++z) {
      columns[4 * y + 2 * z] =
          _mm256_unpacklo_epi64(octets[0][z], octets[1][z]);
      columns[4 * y + 2 * z + 1] =
          _mm256_unpackhi_epi64(octets[0][z], octets[1][z]);
    }
  }
}

inline long long load_row(const std::uint8_t* row) noexcept {
  long long word;
  std::memcpy(&word, row, 8);
  return word;
}

}  // namespace

void transpose_block_avx2(const std::uint8_t* rows, std::size_t row_stride,
                          std::size_t num_rows, std::size_t bytes,
                          std::uint64_t planes[64], std::uint64_t counts[64]) {
  // Rows 32h..32h+31 fill the half h of every plane word: qword p of
  // half[h][k] is row 32h + 8p + k.
  __m256i half[2][8];
  if (num_rows == 64 && bytes == 8) {
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint8_t* row = rows + (32 * h + k) * row_stride;
        half[h][k] = _mm256_setr_epi64x(
            load_row(row), load_row(row + 8 * row_stride),
            load_row(row + 16 * row_stride), load_row(row + 24 * row_stride));
      }
    }
  } else {
    // The last rows of a range or a row's last block: copy what is there,
    // the rest stays zero.
    alignas(32) std::uint64_t staged[2][8][4] = {};
    for (std::size_t r = 0; r < num_rows; ++r) {
      std::memcpy(&staged[r / 32][r % 8][r % 32 / 8], rows + r * row_stride,
                  bytes);
    }
    for (std::size_t h = 0; h < 2; ++h) {
      for (std::size_t k = 0; k < 8; ++k) {
        half[h][k] = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(staged[h][k]));
      }
    }
  }
  // vpmovmskb takes bit 7 of every byte; a byte add moves the next bit up.
  for (std::size_t h = 0; h < 2; ++h) {
    __m256i columns[8];
    rows_to_byte_columns(half[h], columns);
    for (std::size_t b = 0; b < 8; ++b) {
      __m256i bits = columns[b];
      for (std::size_t t = 8; t-- > 0;) {
        const auto word = static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(_mm256_movemask_epi8(bits)));
        if (h == 0) {
          planes[8 * b + t] = word;
        } else {
          planes[8 * b + t] |= word << 32;
        }
        bits = _mm256_add_epi8(bits, bits);
      }
    }
  }
  for (std::size_t l = 0; l < 64; ++l) {
    counts[l] += static_cast<std::uint64_t>(_mm_popcnt_u64(planes[l]));
  }
}

SweepCounts sweep_scores_avx2(double* scores, std::size_t n,
                              const WeightedBits* undo,
                              const WeightedBits& add, double lo, double hi,
                              double* band) {
  return undo != nullptr ? sweep<true>(scores, n, undo, add, lo, hi, band)
                         : sweep<false>(scores, n, undo, add, lo, hi, band);
}

void column_sums_avx2(const std::uint64_t* const* columns, std::size_t width,
                      std::size_t rows, const double* minor,
                      const double* major, double* sums) {
  constexpr std::size_t kVectors = kSumChunk / 4;
  for (std::size_t begin = 0; begin < width; begin += kSumChunk) {
    // A short last chunk runs padded with zero weights and zero bits; only
    // its real columns are stored back.
    const std::size_t chunk =
        width - begin < kSumChunk ? width - begin : kSumChunk;
    alignas(32) double minor_pad[kSumChunk] = {};
    alignas(32) double major_pad[kSumChunk] = {};
    alignas(32) double sum_pad[kSumChunk] = {};
    for (std::size_t i = 0; i < chunk; ++i) {
      minor_pad[i] = minor[begin + i];
      major_pad[i] = major[begin + i];
      sum_pad[i] = sums[begin + i];
    }
    __m256d minor_v[kVectors];
    __m256d major_v[kVectors];
    __m256d acc[kVectors];
    for (std::size_t v = 0; v < kVectors; ++v) {
      minor_v[v] = _mm256_load_pd(minor_pad + 4 * v);
      major_v[v] = _mm256_load_pd(major_pad + 4 * v);
      acc[v] = _mm256_load_pd(sum_pad + 4 * v);
    }
    alignas(32) std::uint64_t words[kSumChunk] = {};
    for (std::size_t base = 0; base < rows; base += 64) {
      for (std::size_t i = 0; i < chunk; ++i) {
        words[i] = columns[begin + i][base / 64];
      }
      __m256i word_v[kVectors];
      for (std::size_t v = 0; v < kVectors; ++v) {
        word_v[v] = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(words + 4 * v));
      }
      const std::size_t bits = rows - base < 64 ? rows - base : 64;
      for (std::size_t k = 0; k < bits; ++k) {
        for (std::size_t v = 0; v < kVectors; ++v) {
          // blendv reads each lane's sign bit: shift row k's bit there.
          const __m256d take_minor =
              _mm256_castsi256_pd(_mm256_slli_epi64(word_v[v], 63));
          acc[v] = _mm256_add_pd(
              acc[v], _mm256_blendv_pd(major_v[v], minor_v[v], take_minor));
          word_v[v] = _mm256_srli_epi64(word_v[v], 1);
        }
      }
    }
    for (std::size_t v = 0; v < kVectors; ++v) {
      _mm256_store_pd(sum_pad + 4 * v, acc[v]);
    }
    for (std::size_t i = 0; i < chunk; ++i) sums[begin + i] = sum_pad[i];
  }
}

std::uint64_t popcount_words_avx2(const std::uint64_t* words, std::size_t n) {
  const std::size_t vectors = n / 4;
  std::uint64_t count = harley_seal(vectors, [words](std::size_t i) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(words + i * 4));
  });
  for (std::size_t i = vectors * 4; i < n; ++i) {
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(words[i]));
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
    count += static_cast<std::uint64_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return count;
}

#else  // !defined(__AVX2__)

// Stubs for builds without AVX2 codegen; the dispatcher never calls them.
bool avx2_kernels_compiled() noexcept { return false; }

void transpose_block_avx2(const std::uint8_t*, std::size_t, std::size_t,
                          std::size_t, std::uint64_t*, std::uint64_t*) {}

std::uint64_t popcount_words_avx2(const std::uint64_t*, std::size_t) {
  return 0;
}

std::uint64_t and_popcount_words_avx2(const std::uint64_t*,
                                      const std::uint64_t*, std::size_t) {
  return 0;
}

SweepCounts sweep_scores_avx2(double*, std::size_t, const WeightedBits*,
                              const WeightedBits&, double, double, double*) {
  return {};
}

void column_sums_avx2(const std::uint64_t* const*, std::size_t, std::size_t,
                      const double*, const double*, double*) {}

#endif  // defined(__AVX2__)

}  // namespace gendpr::genome::kernels::detail
