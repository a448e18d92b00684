// Property test for the LR phase on bit planes: selecting on the indicator
// planes members send (GdoEnclave::on_phase2) with the leader-computed
// weights must be bit-identical — safe set, power and threshold — to the
// paper's path of materialized per-combination `build_lr_matrix` matrices,
// across federation sizes G in {3..6} and collusion bounds f in {1, 2}, in
// the dead-GDO degraded mode, on random blocks whose row counts are not
// multiples of 64, and with or without a thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gendpr/trusted.hpp"
#include "genome/cohort.hpp"
#include "lr_reference.hpp"
#include "stats/lr_test.hpp"

namespace gendpr::core {
namespace {

/// A federation of member enclaves plus the phase-2 message a leader would
/// send them (a retained SNP set), the reference panel the leader holds,
/// and the leader-side inputs of the weights: per-GDO counts over the
/// retained set and the GDOs it declared dead.
struct Federation {
  tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x42}};
  std::vector<std::unique_ptr<tee::Platform>> platforms;
  std::vector<std::unique_ptr<GdoEnclave>> enclaves;
  std::vector<std::vector<std::uint32_t>> combinations;
  Phase2Result phase2;
  genome::BitPlanes reference;
  std::vector<double> reference_freq;
  std::vector<std::vector<std::uint32_t>> case_counts_per_gdo;
  std::vector<std::uint32_t> n_case_per_gdo;
  std::vector<std::uint32_t> dead_gdos;

  /// Case frequencies of the combination `members`: exact integer sums of
  /// counts and populations, then one divide per SNP.
  std::vector<double> case_freq(
      const std::vector<std::uint32_t>& members) const {
    std::uint64_t n_total = 0;
    for (std::uint32_t g : members) n_total += n_case_per_gdo[g];
    std::vector<double> freq(phase2.retained.size(), 0.0);
    for (std::size_t i = 0; i < freq.size(); ++i) {
      std::uint64_t count = 0;
      for (std::uint32_t g : members) count += case_counts_per_gdo[g][i];
      freq[i] = static_cast<double>(count) / static_cast<double>(n_total);
    }
    return freq;
  }
};

Federation make_federation(std::uint32_t num_gdos, std::uint32_t f,
                           std::uint64_t seed) {
  Federation fed;
  genome::CohortSpec spec;
  spec.num_case = 70 * num_gdos;  // 70 rows per GDO: a padded tail word
  spec.num_control = 90;
  spec.num_snps = 48;
  spec.seed = seed;
  const genome::Cohort cohort = genome::generate_cohort(spec);
  const auto ranges =
      genome::equal_partition(cohort.cases.num_individuals(), num_gdos);
  fed.reference = genome::BitPlanes(cohort.controls);

  const StudyAnnounce announce{
      static_cast<std::uint32_t>(cohort.cases.num_snps()), 0};
  fed.combinations =
      Coordinator::build_combinations(num_gdos, CollusionPolicy::fixed(f));

  // Retained set: every third SNP (what survived phases 1-2).
  for (std::uint32_t s = 0; s < announce.num_snps; s += 3) {
    fed.phase2.retained.push_back(s);
  }
  common::Rng rng(seed ^ 0x9e3779b9);
  fed.reference_freq.resize(fed.phase2.retained.size());
  for (auto& p : fed.reference_freq) p = rng.uniform(0.05, 0.95);

  for (std::uint32_t g = 0; g < num_gdos; ++g) {
    std::array<std::uint8_t, 32> platform_seed{};
    platform_seed[0] = static_cast<std::uint8_t>(g + 1);
    fed.platforms.push_back(std::make_unique<tee::Platform>(
        g + 1, fed.authority, crypto::Csprng(platform_seed)));
    fed.enclaves.push_back(
        std::make_unique<GdoEnclave>(*fed.platforms[g], g));
    EXPECT_TRUE(fed.enclaves[g]
                    ->provision_dataset(genome::BitPlanes(
                        cohort.cases, ranges[g].first, ranges[g].second))
                    .ok());
    EXPECT_TRUE(fed.enclaves[g]->on_study_announce(announce).ok());
    EXPECT_TRUE(fed.enclaves[g]->on_phase1({fed.phase2.retained}).ok());
    std::vector<std::uint32_t> counts;
    for (std::uint32_t snp : fed.phase2.retained) {
      counts.push_back(fed.enclaves[g]->planes().allele_count(snp));
    }
    fed.case_counts_per_gdo.push_back(std::move(counts));
    fed.n_case_per_gdo.push_back(static_cast<std::uint32_t>(
        fed.enclaves[g]->planes().num_individuals()));
  }
  return fed;
}

bool combination_contains(const std::vector<std::uint32_t>& members,
                          std::uint32_t gdo) {
  return std::find(members.begin(), members.end(), gdo) != members.end();
}

/// Tight enough that the greedy search rejects candidates on these small
/// cohorts, so the comparison covers roll-backs as well as admissions.
stats::LrSelectionParams tight_params() {
  stats::LrSelectionParams params;
  params.power_threshold = 0.4;
  return params;
}

void expect_same_selection(const stats::LrSelectionResult& got,
                           const stats::LrSelectionResult& expected,
                           const std::string& label) {
  EXPECT_EQ(got.safe_columns, expected.safe_columns) << label;
  EXPECT_EQ(got.final_power, expected.final_power) << label;
  EXPECT_EQ(got.final_threshold, expected.final_threshold) << label;
}

/// Runs on_phase2 on every enclave, then selects every live combination
/// twice: on the returned planes, and on the matrices the paper's members
/// would have built. Returns how many combinations were compared.
std::size_t check_against_matrix_path(Federation& fed,
                                      common::ThreadPool* pool) {
  std::vector<LrPlanes> planes(fed.enclaves.size());
  std::vector<stats::PlaneBlock> blocks(fed.enclaves.size());
  for (std::size_t i = 0; i < fed.enclaves.size(); ++i) {
    auto reply = fed.enclaves[i]->on_phase2(fed.phase2);
    EXPECT_TRUE(reply.ok());
    if (!reply.ok()) return 0;
    planes[i] = std::move(reply).take();
    const std::size_t rows = fed.enclaves[i]->planes().num_individuals();
    EXPECT_EQ(planes[i].width, fed.phase2.retained.size());
    EXPECT_EQ(planes[i].words_per_column, (rows + 63) / 64);
    blocks[i].rows = rows;
    for (std::size_t c = 0; c < planes[i].width; ++c) {
      blocks[i].columns.push_back(planes[i].words.data() +
                                  c * planes[i].words_per_column);
    }
  }
  const auto enclave_of = [&fed](std::uint32_t gdo) -> std::size_t {
    for (std::size_t i = 0; i < fed.enclaves.size(); ++i) {
      if (fed.enclaves[i]->gdo_index() == gdo) return i;
    }
    return fed.enclaves.size();
  };
  std::size_t compared = 0;
  for (std::size_t c = 0; c < fed.combinations.size(); ++c) {
    const auto& members = fed.combinations[c];
    const bool dead = std::any_of(
        fed.dead_gdos.begin(), fed.dead_gdos.end(),
        [&members](std::uint32_t g) {
          return combination_contains(members, g);
        });
    if (dead) continue;
    const stats::LrWeights weights =
        stats::lr_weights(fed.case_freq(members), fed.reference_freq);
    stats::LrMatrix case_lr;
    std::vector<stats::PlaneBlock> case_blocks;
    for (std::uint32_t g : members) {
      const std::size_t i = enclave_of(g);
      stats::reference::append_rows(
          case_lr, stats::build_lr_matrix(fed.enclaves[i]->planes(),
                                          fed.phase2.retained, weights));
      case_blocks.push_back(blocks[i]);
    }
    const stats::LrSelectionResult expected = stats::select_safe_snps(
        case_lr,
        stats::build_lr_matrix(fed.reference, fed.phase2.retained, weights),
        tight_params());
    const stats::LrSelectionResult got = stats::select_safe_snps(
        case_blocks, stats::plane_block(fed.reference, fed.phase2.retained),
        weights, tight_params(), pool);
    expect_same_selection(got, expected,
                          "combination " + std::to_string(c));
    ++compared;
  }
  return compared;
}

/// The planes are the genotype-fixed indicator every combination's matrix
/// is a weight select over, as members send them; the "legacy rebuild" is
/// the materialized per-combination LrMatrix path.
class LrPlanesEquivalenceTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(LrPlanesEquivalenceTest, BasisPathMatchesLegacyRebuild) {
  const auto [num_gdos, f] = GetParam();
  Federation fed = make_federation(num_gdos, f, 7 * num_gdos + f);
  EXPECT_EQ(check_against_matrix_path(fed, nullptr),
            fed.combinations.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LrPlanesEquivalenceTest,
    ::testing::Values(std::pair<std::uint32_t, std::uint32_t>{3, 1},
                      std::pair<std::uint32_t, std::uint32_t>{3, 2},
                      std::pair<std::uint32_t, std::uint32_t>{4, 1},
                      std::pair<std::uint32_t, std::uint32_t>{4, 2},
                      std::pair<std::uint32_t, std::uint32_t>{5, 1},
                      std::pair<std::uint32_t, std::uint32_t>{5, 2},
                      std::pair<std::uint32_t, std::uint32_t>{6, 1},
                      std::pair<std::uint32_t, std::uint32_t>{6, 2}));

TEST(LrPlanesEquivalenceDegradedTest, DeadGdoSkippedOthersBitIdentical) {
  Federation fed = make_federation(4, 1, 99);
  // GDO 3 went silent after phase 1: every combination naming it is
  // dropped.
  fed.dead_gdos = {3};
  fed.enclaves.pop_back();  // the dead GDO never receives the broadcast
  std::size_t live = 0;
  for (const auto& members : fed.combinations) {
    if (!combination_contains(members, 3)) ++live;
  }
  EXPECT_EQ(check_against_matrix_path(fed, nullptr), live);
}

TEST(LrPlanesEquivalenceDegradedTest, PooledDerivationsMatchSerial) {
  Federation fed = make_federation(5, 2, 123);
  common::ThreadPool pool;
  EXPECT_EQ(check_against_matrix_path(fed, &pool),
            fed.combinations.size());
}

/// Random SNP-major planes for `rows` individuals over `cols` columns.
genome::BitPlanes random_planes(std::size_t rows, std::size_t cols,
                                common::Rng& rng) {
  genome::GenotypeMatrix g(rows, cols);
  for (std::size_t n = 0; n < rows; ++n) {
    for (std::size_t s = 0; s < cols; ++s) {
      if (rng.bernoulli(0.35)) g.set(n, s, true);
    }
  }
  return genome::BitPlanes(g);
}

/// A row count in [1, max_rows] that is not a multiple of 64.
std::size_t ragged_rows(common::Rng& rng, std::size_t max_rows) {
  std::size_t rows = 0;
  while (rows == 0 || rows % 64 == 0) rows = 1 + rng.next() % max_rows;
  return rows;
}

TEST(PlaneSelectionBlocksTest, RandomBlocksMatchMatrixPath) {
  common::Rng rng(2024);
  common::ThreadPool pool(4);
  // Small blocks first; the last rounds exceed the 4,096-row threshold at
  // which the pooled candidate updates split rows across workers.
  for (std::size_t round = 0; round < 12; ++round) {
    const std::size_t num_blocks = 1 + round % 6;
    const std::size_t max_rows = round < 6 ? 200 : 1500;
    const std::size_t cols = 1 + rng.next() % 70;
    std::vector<genome::BitPlanes> planes;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      planes.push_back(random_planes(ragged_rows(rng, max_rows), cols, rng));
    }
    const genome::BitPlanes reference =
        random_planes(ragged_rows(rng, round < 6 ? 300 : 5000), cols, rng);
    std::vector<std::uint32_t> snps(cols);
    for (std::uint32_t i = 0; i < cols; ++i) snps[i] = i;
    std::vector<double> case_freq(cols), ref_freq(cols);
    for (std::size_t i = 0; i < cols; ++i) {
      case_freq[i] = rng.uniform(0.05, 0.95);
      // Every fifth column carries no signal (both weights 0).
      ref_freq[i] = i % 5 == 0 ? case_freq[i] : rng.uniform(0.05, 0.95);
    }
    const stats::LrWeights weights = stats::lr_weights(case_freq, ref_freq);

    stats::LrMatrix case_lr;
    std::vector<stats::PlaneBlock> blocks;
    for (const genome::BitPlanes& p : planes) {
      stats::reference::append_rows(case_lr,
                                    stats::build_lr_matrix(p, snps, weights));
      blocks.push_back(stats::plane_block(p, snps));
    }
    const stats::LrSelectionResult expected = stats::select_safe_snps(
        case_lr, stats::build_lr_matrix(reference, snps, weights),
        tight_params());
    const stats::PlaneBlock reference_block =
        stats::plane_block(reference, snps);
    const std::string label = "round " + std::to_string(round) + ", " +
                              std::to_string(num_blocks) + " blocks";
    expect_same_selection(
        stats::select_safe_snps(blocks, reference_block, weights,
                                tight_params()),
        expected, label + " serial");
    expect_same_selection(
        stats::select_safe_snps(blocks, reference_block, weights,
                                tight_params(), &pool),
        expected, label + " pooled");
  }
}

}  // namespace
}  // namespace gendpr::core
