// SNP-major bit-plane view of a GenotypeMatrix.
//
// GenotypeMatrix is row-major (one individual's genotypes contiguous), which
// suits per-individual scans but makes the per-SNP-column kernels - LD
// moments, allele counts, LR-matrix fill - walk the matrix one bit at a time.
// BitPlanes is the column-major transpose packed into 64-bit words: plane l
// holds the genotype bit of every individual at SNP l, so a whole-population
// column reduction is a short word sweep (popcount, AND+popcount) instead of
// N accessor calls. Per-SNP popcounts are precomputed once at construction,
// which makes the five binary-genotype LD moments (mu_x = mu_x2 = count_x,
// mu_xy = popcount(plane_x & plane_y)) derivable without touching the words
// at all for the marginal terms.
//
// Built once per provisioned dataset by a blocked 64x64 bit transpose (the
// dispatched kernels::KernelOps::transpose_block) that reads the caller's
// rows in place, 512 individuals by 64 SNPs at a time, split by SNP block
// across a thread pool when the caller has one. Inside an enclave the
// planes are the only genotype layout, and the only one charged against the
// EPC meter (see DESIGN.md §2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "genome/genotype.hpp"

namespace gendpr::common {
class ThreadPool;
}  // namespace gendpr::common

namespace gendpr::genome {

/// Column-major, 64-bit-word-packed transpose of a GenotypeMatrix with
/// cached per-SNP minor-allele popcounts. Tail bits (individual indices
/// >= num_individuals in the last word of each plane) are always zero.
/// Move-only: the planes are handed to their enclave, never copied.
class BitPlanes {
 public:
  BitPlanes() = default;
  explicit BitPlanes(const GenotypeMatrix& genotypes)
      : BitPlanes(genotypes, 0, genotypes.num_individuals()) {}
  /// Planes of rows [row_begin, row_end) of `genotypes` (a GDO's partition),
  /// read in place: individual 0 of the planes is row `row_begin`. `pool`
  /// (optional) splits the work across its workers; the words and counts
  /// are the same with or without it. Must not be called from a task
  /// running on `pool`.
  BitPlanes(const GenotypeMatrix& genotypes, std::size_t row_begin,
            std::size_t row_end, common::ThreadPool* pool = nullptr);

  std::size_t num_individuals() const noexcept { return num_individuals_; }
  std::size_t num_snps() const noexcept { return num_snps_; }
  std::size_t words_per_plane() const noexcept { return words_per_plane_; }

  /// Words of SNP `snp`'s plane (bit n = individual n's genotype).
  const std::uint64_t* plane(std::size_t snp) const noexcept {
    return words_.get() + snp * words_per_plane_;
  }

  /// Cached minor-allele count at `snp` (popcount of its plane).
  std::uint32_t allele_count(std::size_t snp) const noexcept {
    return counts_[snp];
  }

  /// Minor-allele counts for every SNP (precomputed; no per-call sweep).
  const std::vector<std::uint32_t>& allele_counts() const noexcept {
    return counts_;
  }

  /// popcount(plane_a AND plane_b): individuals carrying the minor allele at
  /// both SNPs - the only non-marginal term of the LD moment struct.
  std::uint32_t pair_count(std::size_t snp_a, std::size_t snp_b) const noexcept;

  bool get(std::size_t individual, std::size_t snp) const noexcept {
    return (plane(snp)[individual / 64] >> (individual % 64)) & 1;
  }

  /// Zero-copy view over the SNP range [snp_begin, snp_end). Planes are
  /// plane-contiguous, so a tile is one contiguous word range of the parent
  /// storage and its per-SNP counts are a slice of the parent cache - taking
  /// a view never repacks words or recomputes popcounts.
  class TileView {
   public:
    TileView() = default;

    std::size_t snp_begin() const noexcept { return snp_begin_; }
    std::size_t snp_end() const noexcept { return snp_begin_ + num_snps_; }
    std::size_t num_snps() const noexcept { return num_snps_; }
    std::size_t words_per_plane() const noexcept { return words_per_plane_; }

    /// Plane of the tile-local SNP `snp` (index 0 = snp_begin).
    const std::uint64_t* plane(std::size_t snp) const noexcept {
      return words_ + snp * words_per_plane_;
    }
    /// The tile's contiguous word range (num_snps * words_per_plane words).
    const std::uint64_t* words() const noexcept { return words_; }
    std::size_t num_words() const noexcept {
      return num_snps_ * words_per_plane_;
    }

    /// Cached minor-allele count of tile-local SNP `snp` (no sweep).
    std::uint32_t allele_count(std::size_t snp) const noexcept {
      return counts_[snp];
    }
    /// Slice of the parent's per-SNP count cache covering the tile.
    const std::uint32_t* allele_counts() const noexcept { return counts_; }

    /// Sum of the tile's per-SNP counts, O(1) from the parent's popcount
    /// prefix array.
    std::uint64_t total_allele_count() const noexcept { return total_; }

   private:
    friend class BitPlanes;
    TileView(const std::uint64_t* words, const std::uint32_t* counts,
             std::size_t snp_begin, std::size_t num_snps,
             std::size_t words_per_plane, std::uint64_t total) noexcept
        : words_(words),
          counts_(counts),
          snp_begin_(snp_begin),
          num_snps_(num_snps),
          words_per_plane_(words_per_plane),
          total_(total) {}

    const std::uint64_t* words_ = nullptr;
    const std::uint32_t* counts_ = nullptr;
    std::size_t snp_begin_ = 0;
    std::size_t num_snps_ = 0;
    std::size_t words_per_plane_ = 0;
    std::uint64_t total_ = 0;
  };

  TileView tile(std::size_t snp_begin, std::size_t snp_end) const noexcept {
    return TileView(plane(snp_begin), counts_.data() + snp_begin, snp_begin,
                    snp_end - snp_begin, words_per_plane_,
                    count_prefix_[snp_end] - count_prefix_[snp_begin]);
  }

  /// Heap bytes of the plane words + count caches (EPC accounting).
  std::size_t storage_bytes() const noexcept {
    return num_snps_ * words_per_plane_ * sizeof(std::uint64_t) +
           counts_.size() * sizeof(std::uint32_t) +
           count_prefix_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t num_individuals_ = 0;
  std::size_t num_snps_ = 0;
  std::size_t words_per_plane_ = 0;
  // num_snps * words_per_plane words, plane-contiguous (snp *
  // words_per_plane). Allocated without zero-filling: the build writes
  // every word once.
  std::unique_ptr<std::uint64_t[]> words_;
  std::vector<std::uint32_t> counts_;
  // count_prefix_[l] = sum of counts_[0..l); tile count totals in O(1).
  std::vector<std::uint64_t> count_prefix_{0};
};

}  // namespace gendpr::genome
