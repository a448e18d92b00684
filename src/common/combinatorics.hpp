// Subset enumeration used by the collusion-tolerant coordinator (§5.6):
// GenDPR evaluates every combination of G-f out of G GDOs and intersects
// the per-combination safe SNP sets.
#pragma once

#include <cstdint>
#include <vector>

namespace gendpr::common {

/// Enumerates all k-element subsets of {0, .., n-1} in lexicographic order.
/// Each subset is a sorted vector of indices.
std::vector<std::vector<std::size_t>> combinations(std::size_t n,
                                                   std::size_t k);

}  // namespace gendpr::common
