// Reference LR matrices for tests: the paper's Fig. 4 step 2 written out
// cell by cell, with no bit planes. Production code builds LR matrices only
// from planes (`stats::build_lr_matrix`); tests compare that build, the
// plane selection and the federation against matrices made here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "genome/genotype.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::stats::reference {

/// The LR matrix of `genotypes` restricted to `snps`: cell (n, i) is
/// `when_minor[i]` if individual n carries the minor allele at snps[i], else
/// `when_major[i]`, read with one GenotypeMatrix::get() per cell.
inline LrMatrix scalar_lr_matrix(const genome::GenotypeMatrix& genotypes,
                                 const std::vector<std::uint32_t>& snps,
                                 const LrWeights& weights) {
  LrMatrix matrix(genotypes.num_individuals(), snps.size());
  for (std::size_t n = 0; n < genotypes.num_individuals(); ++n) {
    for (std::size_t i = 0; i < snps.size(); ++i) {
      matrix.at(n, i) = genotypes.get(n, snps[i]) ? weights.when_minor[i]
                                                  : weights.when_major[i];
    }
  }
  return matrix;
}

/// Appends the rows of `tail` to `head`, which adopts `tail` when it is the
/// default (0 x 0) matrix. Throws std::invalid_argument on a column mismatch.
inline void append_rows(LrMatrix& head, const LrMatrix& tail) {
  if (head.rows() == 0 && head.cols() == 0) {
    head = tail;
    return;
  }
  if (tail.cols() != head.cols()) {
    throw std::invalid_argument("append_rows: column mismatch");
  }
  LrMatrix merged(head.rows() + tail.rows(), head.cols());
  const auto rest = std::copy(head.values().begin(), head.values().end(),
                              merged.values().begin());
  std::copy(tail.values().begin(), tail.values().end(), rest);
  head = std::move(merged);
}

}  // namespace gendpr::stats::reference
