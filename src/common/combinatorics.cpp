#include "common/combinatorics.hpp"

#include <numeric>

namespace gendpr::common {

std::vector<std::vector<std::size_t>> combinations(std::size_t n,
                                                   std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> current(k);
  std::iota(current.begin(), current.end(), std::size_t{0});
  for (;;) {
    out.push_back(current);
    // Find the rightmost position that can still be incremented, i.e. the
    // largest i with current[i] < n - k + i.
    std::size_t i = k;
    while (i > 0 && current[i - 1] == n - k + (i - 1)) --i;
    if (i == 0) break;  // current is the last combination {n-k, .., n-1}
    ++current[i - 1];
    for (std::size_t j = i; j < k; ++j) current[j] = current[j - 1] + 1;
  }
  return out;
}

}  // namespace gendpr::common
