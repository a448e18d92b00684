#include "genome/bitplanes.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "genome/kernels/kernels.hpp"

namespace gendpr::genome {

namespace {

/// Plane words per group: 512 individuals, one 64-byte line of a plane.
constexpr std::size_t kGroupWords = 8;

/// How far ahead of the block being transposed its rows are prefetched:
/// two 64-byte lines, 16 blocks.
constexpr std::size_t kRowsAhead = 128;

}  // namespace

BitPlanes::BitPlanes(const GenotypeMatrix& genotypes, std::size_t row_begin,
                     std::size_t row_end, common::ThreadPool* pool)
    : num_individuals_(row_end - row_begin),
      num_snps_(genotypes.num_snps()),
      words_per_plane_((num_individuals_ + 63) / 64),
      words_(std::make_unique_for_overwrite<std::uint64_t[]>(
          num_snps_ * words_per_plane_)),
      counts_(num_snps_, 0) {
  // Blocked transpose, 64 SNPs x 64 individuals at a time. A worker owns a
  // contiguous range of 64-SNP blocks and walks it by groups of
  // kGroupWords plane words (512 rows), the group outer and its blocks
  // inner: each of a block's planes receives kGroupWords consecutive words
  // in one burst, and consecutive blocks read the next 8 bytes of the same
  // rows while their cache lines are still hot. Each row gives 8 bytes per
  // block (bit l % 8 of byte l / 8 is SNP l); a row's last block reads only
  // its remaining bytes, rows past row_end read as zero (zero tail bits),
  // and only real planes are stored. Every word of words_ is written
  // exactly once, by the worker that owns its block, so the storage is left
  // uninitialised and each worker first-touches its own pages.
  const std::size_t stride = genotypes.row_stride();
  const std::size_t blocks = (num_snps_ + 63) / 64;
  const kernels::KernelOps& ops = kernels::kernel_ops();
  // Per-SNP popcounts, added by the kernel from the words it returns; a
  // block's counts belong to the worker that owns the block.
  std::vector<std::uint64_t> counts(blocks * 64, 0);
  const auto build_blocks = [&](std::size_t block_begin,
                                std::size_t block_end) {
    std::uint64_t block[64];
    const std::size_t snp_end = std::min(num_snps_, block_end * 64);
    for (std::size_t group = 0; group < words_per_plane_;
         group += kGroupWords) {
      const std::size_t group_end =
          std::min(words_per_plane_, group + kGroupWords);
      const std::size_t group_rows_end =
          std::min(row_end, row_begin + group_end * 64);
      for (std::size_t snp = block_begin * 64; snp < snp_end; snp += 64) {
        const std::size_t bytes = std::min<std::size_t>(8, stride - snp / 8);
        const std::size_t planes = std::min<std::size_t>(64, num_snps_ - snp);
        std::uint64_t* const out = words_.get() + snp * words_per_plane_;
        // Neither stream is one the hardware prefetchers follow, and both
        // miss to DRAM: the group's rows move on by 64 bytes every 8
        // blocks, so those bytes are fetched kRowsAhead bytes early, and
        // the next block's plane lines are fetched for writing while this
        // block is transposed.
        if (snp % 512 == 0 && snp / 8 + kRowsAhead < stride) {
          for (std::size_t r = row_begin + group * 64; r < group_rows_end;
               ++r) {
            __builtin_prefetch(genotypes.row_data(r) + snp / 8 + kRowsAhead);
          }
        }
        for (std::size_t next = snp + 64; next < std::min(snp + 128, snp_end);
             ++next) {
          __builtin_prefetch(plane(next) + group, 1);
          __builtin_prefetch(plane(next) + group_end - 1, 1);
        }
        for (std::size_t word = group; word < group_end; ++word) {
          const std::size_t first = row_begin + word * 64;
          ops.transpose_block(genotypes.row_data(first) + snp / 8, stride,
                              std::min<std::size_t>(64, row_end - first),
                              bytes, block, counts.data() + snp);
          for (std::size_t k = 0; k < planes; ++k) {
            out[k * words_per_plane_ + word] = block[k];
          }
        }
      }
    }
  };
  // With a pool, each worker takes one contiguous range of blocks (an empty
  // one when there are more workers than blocks). The ranges write disjoint
  // plane words and counts, so both are the serial build's; the counts are
  // narrowed after the join.
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
    counts_[l] = static_cast<std::uint32_t>(counts[l]);
    count_prefix_[l + 1] = count_prefix_[l] + counts_[l];
  }
}

std::uint32_t BitPlanes::pair_count(std::size_t snp_a,
                                    std::size_t snp_b) const noexcept {
  return static_cast<std::uint32_t>(kernels::kernel_ops().and_popcount_words(
      plane(snp_a), plane(snp_b), words_per_plane_));
}

}  // namespace gendpr::genome
