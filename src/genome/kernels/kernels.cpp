#include "genome/kernels/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "crypto/cpu_features.hpp"
#include "genome/kernels/kernels_backend.hpp"

namespace gendpr::genome::kernels {

namespace detail {

namespace {

/// In-place transpose of a 64x64 bit matrix (bit c of block[r] is row r,
/// column c): swaps the off-diagonal halves, then quarters, down to single
/// bits (Hacker's Delight, §7-3).
void transpose_64x64(std::uint64_t block[64]) noexcept {
  std::uint64_t mask = 0x00000000FFFFFFFFull;
  for (unsigned width = 32; width != 0; width >>= 1, mask ^= mask << width) {
    for (unsigned r = 0; r < 64; r = ((r | width) + 1) & ~width) {
      const std::uint64_t swap =
          ((block[r] >> width) ^ block[r | width]) & mask;
      block[r] ^= swap << width;
      block[r | width] ^= swap;
    }
  }
}

}  // namespace

void transpose_block_portable(const std::uint8_t* rows,
                              std::size_t row_stride, std::size_t num_rows,
                              std::size_t bytes, std::uint64_t planes[64],
                              std::uint64_t counts[64]) {
  // planes[r] holds row r (byte b in bits 8b..8b+7) until the transpose.
  for (std::size_t r = 0; r < 64; ++r) planes[r] = 0;
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::uint8_t* row = rows + r * row_stride;
    if (bytes == 8 && std::endian::native == std::endian::little) {
      std::memcpy(&planes[r], row, 8);
    } else {
      for (std::size_t b = 0; b < bytes; ++b) {
        planes[r] |= std::uint64_t{row[b]} << (8 * b);
      }
    }
  }
  transpose_64x64(planes);
  for (std::size_t l = 0; l < 64; ++l) {
    counts[l] += static_cast<std::uint64_t>(std::popcount(planes[l]));
  }
}

std::uint64_t popcount_words_portable(const std::uint64_t* words,
                                      std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(words[i]));
  }
  return count;
}

std::uint64_t and_popcount_words_portable(const std::uint64_t* a,
                                          const std::uint64_t* b,
                                          std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

namespace {

template <bool kUndo>
SweepCounts sweep_rows(double* scores, std::size_t n,
                       const WeightedBits* undo, const WeightedBits& add,
                       double lo, double hi, double* band) {
  SweepCounts counts;
  for (std::size_t base = 0; base < n; base += 64) {
    const std::uint64_t word = add.bits[base / 64];
    const std::uint64_t undo_word = kUndo ? undo->bits[base / 64] : 0;
    const std::size_t rows = std::min<std::size_t>(64, n - base);
    for (std::size_t k = 0; k < rows; ++k) {
      double s = scores[base + k];
      if constexpr (kUndo) s -= undo->weight[(undo_word >> k) & 1];
      s += add.weight[(word >> k) & 1];
      scores[base + k] = s;
      const bool from_lo = s >= lo;
      const bool to_hi = s <= hi;
      counts.below += from_lo ? 0 : 1;
      counts.above += to_hi ? 0 : 1;
      // Written at the band's end every time, kept only when it advances.
      band[counts.band] = s;
      counts.band += from_lo && to_hi ? 1 : 0;
    }
  }
  return counts;
}

}  // namespace

SweepCounts sweep_scores_portable(double* scores, std::size_t n,
                                  const WeightedBits* undo,
                                  const WeightedBits& add, double lo,
                                  double hi, double* band) {
  return undo != nullptr
             ? sweep_rows<true>(scores, n, undo, add, lo, hi, band)
             : sweep_rows<false>(scores, n, undo, add, lo, hi, band);
}

void column_sums_portable(const std::uint64_t* const* columns,
                          std::size_t width, std::size_t rows,
                          const double* minor, const double* major,
                          double* sums) {
  // Up to 64 columns advance together, one row at a time, so the adds of
  // different columns overlap while each column keeps its row order.
  constexpr std::size_t kChunk = 64;
  std::uint64_t minor_bits[kChunk];
  std::uint64_t major_bits[kChunk];
  std::uint64_t words[kChunk];
  for (std::size_t begin = 0; begin < width; begin += kChunk) {
    const std::size_t chunk = std::min(kChunk, width - begin);
    for (std::size_t i = 0; i < chunk; ++i) {
      minor_bits[i] = std::bit_cast<std::uint64_t>(minor[begin + i]);
      major_bits[i] = std::bit_cast<std::uint64_t>(major[begin + i]);
    }
    for (std::size_t base = 0; base < rows; base += 64) {
      for (std::size_t i = 0; i < chunk; ++i) {
        words[i] = columns[begin + i][base / 64];
      }
      const std::size_t bits = std::min<std::size_t>(64, rows - base);
      for (std::size_t k = 0; k < bits; ++k) {
        for (std::size_t i = 0; i < chunk; ++i) {
          const std::uint64_t take_minor = 0 - ((words[i] >> k) & 1);
          sums[begin + i] += std::bit_cast<double>(
              (minor_bits[i] & take_minor) | (major_bits[i] & ~take_minor));
        }
      }
    }
  }
}

}  // namespace detail

namespace {

constexpr KernelOps kPortableOps = {
    &detail::transpose_block_portable,
    &detail::popcount_words_portable,
    &detail::and_popcount_words_portable,
    &detail::sweep_scores_portable,
    &detail::column_sums_portable,
};

constexpr KernelOps kAvx2Ops = {
    &detail::transpose_block_avx2,
    &detail::popcount_words_avx2,
    &detail::and_popcount_words_avx2,
    &detail::sweep_scores_avx2,
    &detail::column_sums_avx2,
};

constexpr KernelOps kAvx512Ops = {
    &detail::transpose_block_avx512,
    &detail::popcount_words_avx512,
    &detail::and_popcount_words_avx512,
    &detail::sweep_scores_avx512,
    &detail::column_sums_avx512,
};

KernelBackend best_available_backend() noexcept {
  if (kernel_backend_available(KernelBackend::avx512)) {
    return KernelBackend::avx512;
  }
  if (kernel_backend_available(KernelBackend::avx2)) {
    return KernelBackend::avx2;
  }
  return KernelBackend::portable;
}

}  // namespace

const char* kernel_backend_name(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::avx2:
      return "avx2";
    case KernelBackend::avx512:
      return "avx512";
    case KernelBackend::portable:
      break;
  }
  return "portable";
}

bool kernel_backend_available(KernelBackend backend) noexcept {
  const crypto::CpuFeatures& cpu = crypto::cpu_features();
  switch (backend) {
    case KernelBackend::portable:
      return true;
    case KernelBackend::avx2:
      return detail::avx2_kernels_compiled() && cpu.avx2;
    case KernelBackend::avx512:
      return detail::avx512_kernels_compiled() && cpu.avx512_popcount;
  }
  return false;
}

KernelBackend default_kernel_backend() noexcept {
  const char* env = std::getenv("GENDPR_KERNEL_BACKEND");
  if (env != nullptr) {
    KernelBackend requested = KernelBackend::portable;
    bool known = true;
    if (std::strcmp(env, "portable") == 0) {
      requested = KernelBackend::portable;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = KernelBackend::avx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = KernelBackend::avx512;
    } else {
      known = false;
    }
    if (known && kernel_backend_available(requested)) return requested;
  }
  return best_available_backend();
}

const KernelOps& kernel_ops_for(KernelBackend backend) noexcept {
  switch (backend) {
    case KernelBackend::avx2:
      if (kernel_backend_available(KernelBackend::avx2)) return kAvx2Ops;
      break;
    case KernelBackend::avx512:
      if (kernel_backend_available(KernelBackend::avx512)) return kAvx512Ops;
      break;
    case KernelBackend::portable:
      break;
  }
  return kPortableOps;
}

KernelBackend active_kernel_backend() noexcept {
  static const KernelBackend backend = default_kernel_backend();
  return backend;
}

const KernelOps& kernel_ops() noexcept {
  static const KernelOps& ops = kernel_ops_for(active_kernel_backend());
  return ops;
}

}  // namespace gendpr::genome::kernels
