#include "stats/attacks.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/lr_test.hpp"

namespace gendpr::stats {

std::vector<double> homer_scores(const genome::GenotypeMatrix& population,
                                 const std::vector<std::uint32_t>& released,
                                 const std::vector<double>& case_freq,
                                 const std::vector<double>& reference_freq) {
  if (released.size() != case_freq.size() ||
      released.size() != reference_freq.size()) {
    throw std::invalid_argument("homer_scores: size mismatch");
  }
  std::vector<double> scores(population.num_individuals(), 0.0);
  // |y - p| for binary y: y=1 -> 1-p; y=0 -> p. The per-SNP contribution is
  // precomputable for both alleles.
  std::vector<double> when_minor(released.size());
  std::vector<double> when_major(released.size());
  for (std::size_t i = 0; i < released.size(); ++i) {
    when_minor[i] = (1.0 - reference_freq[i]) - (1.0 - case_freq[i]);
    when_major[i] = reference_freq[i] - case_freq[i];
  }
  for (std::size_t n = 0; n < population.num_individuals(); ++n) {
    double d = 0.0;
    for (std::size_t i = 0; i < released.size(); ++i) {
      d += population.get(n, released[i]) ? when_minor[i] : when_major[i];
    }
    scores[n] = d;
  }
  return scores;
}

std::vector<double> lr_scores(const genome::GenotypeMatrix& population,
                              const std::vector<std::uint32_t>& released,
                              const std::vector<double>& case_freq,
                              const std::vector<double>& reference_freq) {
  const LrWeights weights = lr_weights(case_freq, reference_freq);
  std::vector<double> scores(population.num_individuals(), 0.0);
  for (std::size_t n = 0; n < population.num_individuals(); ++n) {
    double lr = 0.0;
    for (std::size_t i = 0; i < released.size(); ++i) {
      lr += population.get(n, released[i]) ? weights.when_minor[i]
                                           : weights.when_major[i];
    }
    scores[n] = lr;
  }
  return scores;
}

AttackPower evaluate_attack(const std::vector<double>& member_scores,
                            const std::vector<double>& nonmember_scores,
                            double false_positive_rate) {
  AttackPower result;
  result.power = detection_power(member_scores, nonmember_scores,
                                 false_positive_rate, &result.threshold);
  return result;
}

}  // namespace gendpr::stats
