#include "genome/bitplanes.hpp"

#include <algorithm>

#include "genome/kernels/kernels.hpp"

namespace gendpr::genome {

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

BitPlanes::BitPlanes(const GenotypeMatrix& genotypes, std::size_t row_begin,
                     std::size_t row_end)
    : num_individuals_(row_end - row_begin),
      num_snps_(genotypes.num_snps()),
      words_per_plane_((num_individuals_ + 63) / 64),
      words_(num_snps_ * words_per_plane_, 0),
      counts_(num_snps_, 0) {
  // Blocked transpose, 64 individuals x 64 SNPs at a time: each row gives
  // 8 bytes (bit l % 8 of byte l / 8 is SNP l), each transposed word lands
  // in one plane. Rows past row_end read as zero (zero tail bits); a row's
  // last block reads only its remaining bytes and stores only real planes.
  const std::size_t stride = genotypes.row_stride();
  for (std::size_t word = 0; word < words_per_plane_; ++word) {
    const std::size_t first = row_begin + word * 64;
    const std::size_t rows = std::min<std::size_t>(64, row_end - first);
    for (std::size_t snp = 0; snp < num_snps_; snp += 64) {
      std::uint64_t block[64] = {};
      const std::size_t bytes = std::min<std::size_t>(8, stride - snp / 8);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint8_t* row = genotypes.row_data(first + r) + snp / 8;
        for (std::size_t b = 0; b < bytes; ++b) {
          block[r] |= std::uint64_t{row[b]} << (8 * b);
        }
      }
      transpose_64x64(block);
      const std::size_t planes = std::min<std::size_t>(64, num_snps_ - snp);
      for (std::size_t k = 0; k < planes; ++k) {
        words_[(snp + k) * words_per_plane_ + word] = block[k];
      }
    }
  }
  const kernels::KernelOps& ops = kernels::kernel_ops();
  count_prefix_.assign(num_snps_ + 1, 0);
  for (std::size_t l = 0; l < num_snps_; ++l) {
    counts_[l] = static_cast<std::uint32_t>(
        ops.popcount_words(plane(l), words_per_plane_));
    count_prefix_[l + 1] = count_prefix_[l] + counts_[l];
  }
}

std::uint32_t BitPlanes::pair_count(std::size_t snp_a,
                                    std::size_t snp_b) const noexcept {
  return static_cast<std::uint32_t>(kernels::kernel_ops().and_popcount_words(
      plane(snp_a), plane(snp_b), words_per_plane_));
}

}  // namespace gendpr::genome
