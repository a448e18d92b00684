#include "genome/bitplanes.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/thread_pool.hpp"
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
                     std::size_t row_end, common::ThreadPool* pool)
    : num_individuals_(row_end - row_begin),
      num_snps_(genotypes.num_snps()),
      words_per_plane_((num_individuals_ + 63) / 64),
      words_(num_snps_ * words_per_plane_, 0),
      counts_(num_snps_, 0) {
  // Blocked transpose, 64 SNPs x 64 individuals at a time. The SNP block is
  // the outer loop, so one block's planes stay hot while every individual
  // word fills them and while they are popcounted, and the rows' next bytes
  // stay in cache for the next block. Each row gives 8 bytes (bit l % 8 of
  // byte l / 8 is SNP l). Rows past row_end read as zero (zero tail bits); a
  // row's last block reads only its remaining bytes and stores only real
  // planes.
  const std::size_t stride = genotypes.row_stride();
  const kernels::KernelOps& ops = kernels::kernel_ops();
  const auto build_blocks = [&](std::size_t block_begin,
                                std::size_t block_end) {
    for (std::size_t snp = block_begin * 64; snp < block_end * 64;
         snp += 64) {
      const std::size_t bytes = std::min<std::size_t>(8, stride - snp / 8);
      const std::size_t planes = std::min<std::size_t>(64, num_snps_ - snp);
      std::uint64_t* const out = words_.data() + snp * words_per_plane_;
      for (std::size_t word = 0; word < words_per_plane_; ++word) {
        const std::size_t first = row_begin + word * 64;
        const std::size_t rows = std::min<std::size_t>(64, row_end - first);
        std::uint64_t block[64] = {};
        for (std::size_t r = 0; r < rows; ++r) {
          const std::uint8_t* row = genotypes.row_data(first + r) + snp / 8;
          if (bytes == 8 && std::endian::native == std::endian::little) {
            std::memcpy(&block[r], row, 8);
          } else {
            for (std::size_t b = 0; b < bytes; ++b) {
              block[r] |= std::uint64_t{row[b]} << (8 * b);
            }
          }
        }
        transpose_64x64(block);
        for (std::size_t k = 0; k < planes; ++k) {
          out[k * words_per_plane_ + word] = block[k];
        }
      }
      for (std::size_t k = 0; k < planes; ++k) {
        counts_[snp + k] = static_cast<std::uint32_t>(ops.popcount_words(
            out + k * words_per_plane_, words_per_plane_));
      }
    }
  };
  // With a pool, each worker takes one contiguous range of SNP blocks (an
  // empty one when there are more workers than blocks). The ranges write
  // disjoint plane words and disjoint counts, so the words are the serial
  // build's; the prefix sum below runs after the join.
  const std::size_t blocks = (num_snps_ + 63) / 64;
  if (pool == nullptr) {
    build_blocks(0, blocks);
  } else {
    const std::size_t lanes = pool->size();
    pool->parallel_for(lanes, [&](std::size_t lane) {
      build_blocks(blocks * lane / lanes, blocks * (lane + 1) / lanes);
    });
  }
  count_prefix_.assign(num_snps_ + 1, 0);
  for (std::size_t l = 0; l < num_snps_; ++l) {
    count_prefix_[l + 1] = count_prefix_[l] + counts_[l];
  }
}

std::uint32_t BitPlanes::pair_count(std::size_t snp_a,
                                    std::size_t snp_b) const noexcept {
  return static_cast<std::uint32_t>(kernels::kernel_ops().and_popcount_words(
      plane(snp_a), plane(snp_b), words_per_plane_));
}

}  // namespace gendpr::genome
