// Genotype storage.
//
// A GWAS over L SNPs encodes each genome as one binary value per SNP
// (paper §3.1, Table 1): 0 = only the major allele present, 1 = the minor
// allele present. GenotypeMatrix stores N individuals x L SNPs bit-packed
// (8 genotypes/byte), one row per individual: the form in which cohorts are
// generated, read from VCF-lite files and released. GenDPR enclaves never
// hold it: they hold the SNP-major BitPlanes built from its rows
// (bitplanes.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace gendpr::genome {

/// Bit-packed N x L matrix of binary genotypes. Row-major: each individual's
/// genotypes are contiguous, so per-individual scans (LR-test) and per-SNP
/// columns (allele counts) are both cheap.
class GenotypeMatrix {
 public:
  GenotypeMatrix() = default;
  GenotypeMatrix(std::size_t num_individuals, std::size_t num_snps);

  std::size_t num_individuals() const noexcept { return num_individuals_; }
  std::size_t num_snps() const noexcept { return num_snps_; }

  bool get(std::size_t individual, std::size_t snp) const noexcept;
  void set(std::size_t individual, std::size_t snp, bool minor) noexcept;

  /// Count of minor alleles at `snp` over all individuals.
  std::uint32_t allele_count(std::size_t snp) const noexcept;

  /// Minor-allele counts for every SNP (the caseLocalCounts vector of §5.2).
  std::vector<std::uint32_t> allele_counts() const;

  /// Minor-allele counts restricted to the SNP subset `snps`.
  std::vector<std::uint32_t> allele_counts(
      const std::vector<std::uint32_t>& snps) const;

  /// Selects rows [begin, end) into a new matrix (GDO partitioning).
  GenotypeMatrix slice_rows(std::size_t begin, std::size_t end) const;

  /// Raw packed-row access for word-parallel consumers (BitPlanes build).
  /// Bits past num_snps() in the last byte of a row are always zero.
  std::size_t row_stride() const noexcept { return row_stride_; }
  const std::uint8_t* row_data(std::size_t individual) const noexcept {
    return bits_.data() + individual * row_stride_;
  }

  /// Heap bytes used by the packed storage.
  std::size_t storage_bytes() const noexcept { return bits_.size(); }

  bool operator==(const GenotypeMatrix&) const = default;

 private:
  std::size_t index_of(std::size_t individual, std::size_t snp) const noexcept {
    return individual * row_stride_ + snp / 8;
  }

  std::size_t num_individuals_ = 0;
  std::size_t num_snps_ = 0;
  std::size_t row_stride_ = 0;  // bytes per row
  common::Bytes bits_;
};

}  // namespace gendpr::genome
