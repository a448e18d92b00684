#include "gendpr/federation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gendpr/baselines.hpp"
#include "gendpr/messages.hpp"
#include "gendpr/report.hpp"
#include "genome/tile_plan.hpp"
#include "json_parse.hpp"
#include "obs/observability.hpp"
#include "tee/epc_meter.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort(std::size_t n_case = 600,
                           std::size_t n_control = 600,
                           std::size_t n_snps = 150, std::uint64_t seed = 9) {
  genome::CohortSpec spec;
  spec.num_case = n_case;
  spec.num_control = n_control;
  spec.num_snps = n_snps;
  spec.seed = seed;
  return genome::generate_cohort(spec);
}

TEST(FederationTest, TwoGdoStudyCompletes) {
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 2;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const auto& outcome = result.value().outcome;
  EXPECT_FALSE(outcome.l_prime.empty());
  EXPECT_LE(outcome.l_double_prime.size(), outcome.l_prime.size());
  EXPECT_LE(outcome.l_safe.size(), outcome.l_double_prime.size());
  EXPECT_LE(outcome.final_power, spec.config.lr_power_threshold);
}

TEST(FederationTest, PipelinePhasesShrinkMonotonically) {
  const genome::Cohort cohort = test_cohort();
  for (std::uint32_t g : {1u, 3u, 5u}) {
    FederationSpec spec;
    spec.num_gdos = g;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok()) << "G=" << g;
    const auto& outcome = result.value().outcome;
    EXPECT_LE(outcome.l_double_prime.size(), outcome.l_prime.size());
    EXPECT_LE(outcome.l_safe.size(), outcome.l_double_prime.size());
    // Lists are sorted, unique, in range.
    EXPECT_TRUE(std::is_sorted(outcome.l_safe.begin(), outcome.l_safe.end()));
    for (std::uint32_t snp : outcome.l_safe) {
      EXPECT_LT(snp, cohort.cases.num_snps());
    }
  }
}

TEST(FederationTest, ResultIndependentOfGdoCount) {
  // Paper §7.3: "changing the number of GDOs in the federation does not
  // affect the outcome of the verification".
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 1;
  const auto base = run_federated_study(cohort, spec);
  ASSERT_TRUE(base.ok());
  for (std::uint32_t g : {2u, 3u, 4u, 7u}) {
    FederationSpec varied = spec;
    varied.num_gdos = g;
    const auto result = run_federated_study(cohort, varied);
    ASSERT_TRUE(result.ok()) << "G=" << g;
    EXPECT_EQ(result.value().outcome.l_prime, base.value().outcome.l_prime)
        << "G=" << g;
    EXPECT_EQ(result.value().outcome.l_double_prime,
              base.value().outcome.l_double_prime)
        << "G=" << g;
    EXPECT_EQ(result.value().outcome.l_safe, base.value().outcome.l_safe)
        << "G=" << g;
  }
}

TEST(FederationTest, Phase2BodyIndependentOfGdoCount) {
  // Each phase-2 tile carries exactly its slice of L'' and the tile
  // position: the leader keeps every GDO's counts, so the body a member
  // receives does not grow with the federation.
  const genome::Cohort cohort = test_cohort();
  for (std::uint32_t width : {0u, 32u}) {
    std::vector<std::uint32_t> l_double_prime;
    std::uint64_t body_bytes = 0;
    for (std::uint32_t g : {3u, 6u}) {
      FederationSpec spec;
      spec.num_gdos = g;
      spec.config.snp_tile_width = width;
      const auto result = run_federated_study(cohort, spec);
      ASSERT_TRUE(result.ok()) << "G=" << g << " width=" << width;
      const StudyResult& study = result.value();
      if (g == 3) {
        l_double_prime = study.outcome.l_double_prime;
        body_bytes = study.phase2_body_bytes;
      }
      EXPECT_EQ(study.outcome.l_double_prime, l_double_prime)
          << "G=" << g << " width=" << width;
      EXPECT_EQ(study.phase2_body_bytes, body_bytes)
          << "G=" << g << " width=" << width;
    }
    ASSERT_FALSE(l_double_prime.empty());
    const genome::TilePlan plan = genome::TilePlan::over(
        static_cast<std::uint32_t>(l_double_prime.size()), width);
    std::uint64_t trimmed = 0;
    for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
      trimmed += wire::encoded_size(
          Phase2Result{plan.slice(l_double_prime, k), k, plan.tile_count()});
    }
    EXPECT_EQ(body_bytes, trimmed) << "width=" << width;
  }
}

TEST(FederationTest, DeterministicForSameSeed) {
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.seed = 1234;
  const auto a = run_federated_study(cohort, spec);
  const auto b = run_federated_study(cohort, spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().outcome.l_safe, b.value().outcome.l_safe);
  EXPECT_EQ(a.value().leader_gdo, b.value().leader_gdo);

  // Tiled, every session runs on one loop in process, so even the counts
  // that follow arrival order (LD windows sealed out ahead of the walk, and
  // with them the sealing volume) repeat exactly. The environment could
  // force the epoll transport, whose arrival order follows the kernel.
  const char* forced = std::getenv("GENDPR_TRANSPORT");
  const std::optional<std::string> saved =
      forced != nullptr ? std::optional<std::string>(forced) : std::nullopt;
  ::unsetenv("GENDPR_TRANSPORT");
  const genome::Cohort tiled_cohort = test_cohort(300, 300, 400, 5);
  spec.config.snp_tile_width = 32;
  std::vector<StudyResult> runs;
  std::vector<std::uint64_t> sealed_out;
  for (int run = 0; run < 5; ++run) {
    obs::Observability observability;
    spec.obs = &observability;
    auto result = run_federated_study(tiled_cohort, spec);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    runs.push_back(std::move(result).take());
    sealed_out.push_back(
        observability.metrics.counter("ld.window_tiles_sealed_out"));
  }
  if (saved.has_value()) ::setenv("GENDPR_TRANSPORT", saved->c_str(), 1);
  EXPECT_GT(sealed_out[0], 0u);
  for (std::size_t run = 1; run < runs.size(); ++run) {
    EXPECT_EQ(runs[run].outcome.l_safe, runs[0].outcome.l_safe);
    EXPECT_EQ(runs[run].crypto_records_sealed, runs[0].crypto_records_sealed);
    EXPECT_EQ(runs[run].crypto_bytes_sealed, runs[0].crypto_bytes_sealed);
    EXPECT_EQ(sealed_out[run], sealed_out[0]) << "run " << run;
  }
}

TEST(FederationTest, StudyPoolAtFZeroLeavesResultsUnchanged) {
  // At f = 0 the study's pool builds every GDO's planes and runs the one
  // combination's gap pass; neither may move a result bit. L'' must span
  // more than one 64-column gap block for the pass to split.
  const genome::Cohort cohort = test_cohort(600, 600, 400, 23);
  for (const std::uint32_t tile_width : {0u, 96u}) {
    FederationSpec spec;
    spec.num_gdos = 3;
    spec.seed = 29;
    spec.config.snp_tile_width = tile_width;
    spec.parallel_combinations = true;
    const auto pooled = run_federated_study(cohort, spec);
    spec.parallel_combinations = false;
    const auto serial = run_federated_study(cohort, spec);
    ASSERT_TRUE(pooled.ok()) << pooled.error().to_string();
    ASSERT_TRUE(serial.ok()) << serial.error().to_string();
    const SelectionOutcome& a = pooled.value().outcome;
    const SelectionOutcome& b = serial.value().outcome;
    EXPECT_GT(a.l_double_prime.size(), 64u);
    EXPECT_EQ(a.l_prime, b.l_prime);
    EXPECT_EQ(a.l_double_prime, b.l_double_prime);
    EXPECT_EQ(a.l_safe, b.l_safe);
    EXPECT_EQ(a.final_power, b.final_power);
  }
}

TEST(FederationTest, LeaderElectionVariesWithSeed) {
  const genome::Cohort cohort = test_cohort(200, 200, 60);
  std::set<std::uint32_t> leaders;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    FederationSpec spec;
    spec.num_gdos = 4;
    spec.seed = seed;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok());
    leaders.insert(result.value().leader_gdo);
  }
  EXPECT_GT(leaders.size(), 1u);  // different seeds elect different leaders
}

TEST(FederationTest, ZeroGdosRejected) {
  const genome::Cohort cohort = test_cohort(100, 100, 30);
  FederationSpec spec;
  spec.num_gdos = 0;
  EXPECT_FALSE(run_federated_study(cohort, spec).ok());
}

TEST(StudyConfigTest, ValidateAcceptsClosedUnitIntervalRates) {
  StudyConfig config;
  EXPECT_TRUE(validate(config).ok());
  for (double rate : {0.0, 1.0}) {
    config.lr_false_positive_rate = rate;
    config.lr_power_threshold = rate;
    EXPECT_TRUE(validate(config).ok()) << rate;
  }
}

TEST(StudyConfigTest, ValidateRejectsOutOfDomainThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, StudyConfig>> bad = {
      {"lr_false_positive_rate", StudyConfig{.lr_false_positive_rate = 1.5}},
      {"lr_false_positive_rate", StudyConfig{.lr_false_positive_rate = -0.1}},
      {"lr_false_positive_rate", StudyConfig{.lr_false_positive_rate = nan}},
      {"lr_power_threshold", StudyConfig{.lr_power_threshold = 1.01}},
      {"lr_power_threshold", StudyConfig{.lr_power_threshold = -inf}},
      {"maf_cutoff", StudyConfig{.maf_cutoff = inf}},
      {"ld_cutoff", StudyConfig{.ld_cutoff = nan}},
  };
  for (const auto& [field, config] : bad) {
    const common::Status status = validate(config);
    ASSERT_FALSE(status.ok()) << field;
    EXPECT_EQ(status.error().code, common::Errc::invalid_argument) << field;
    EXPECT_NE(status.error().message.find(field), std::string::npos)
        << status.error().message;
  }
}

TEST(FederationTest, OutOfRangeFprRejectedBeforeAnySession) {
  // An FPR above 1 used to reach the LR quantile and overflow its index
  // cast; the study must refuse it up front instead.
  const genome::Cohort cohort = test_cohort(100, 100, 30);
  for (double fpr : {1.5, -0.5}) {
    obs::Observability obs;
    FederationSpec spec;
    spec.num_gdos = 3;
    spec.config.lr_false_positive_rate = fpr;
    spec.obs = &obs;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_FALSE(result.ok()) << fpr;
    EXPECT_EQ(result.error().code, common::Errc::invalid_argument);
    // Refused before setup: no span, not even the study's own, was opened.
    EXPECT_TRUE(obs.trace.spans().empty());
  }
}

TEST(FederationTest, ReferenceOverOtherSnpsRejected) {
  // With a reference panel over fewer SNPs than the cases, the leader would
  // read the panel's counts past their end; the study refuses it up front.
  genome::Cohort cohort = test_cohort(100, 100, 30);
  cohort.controls = test_cohort(100, 100, 20).controls;
  obs::Observability obs;
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.obs = &obs;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::invalid_argument);
  EXPECT_TRUE(obs.trace.spans().empty());
}

TEST(FederationTest, NetworkCarriesOnlyCiphertext) {
  // Indirect check: total network traffic must exceed the plaintext payloads
  // by the AEAD overheads, and no genotype-sized transfers occur (genomes
  // never leave GDOs). The dominant transfer is LR matrices over L''.
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 3;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok());
  // Bandwidth sanity: total bytes dwarfed by shipping raw genomes (which
  // would be ~ N * L / 8 bytes * G copies).
  EXPECT_GT(result.value().network_bytes_total, 0u);
  EXPECT_GT(result.value().leader_bytes_received, 0u);
}

TEST(FederationTest, EpcPeaksReported) {
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 3;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().epc_peak_leader, 0u);
  EXPECT_GT(result.value().epc_peak_members_max, 0u);
  // Members hold roughly a GDO's slice of the genomes, as bit planes.
  EXPECT_LT(result.value().epc_peak_members_max,
            tee::EpcMeter::kDefaultLimitBytes);
}

TEST(FederationTest, TimingsPopulated) {
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 2;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok());
  const auto& t = result.value().timings;
  EXPECT_GT(t.total_ms, 0.0);
  EXPECT_GE(t.aggregation_ms, 0.0);
  EXPECT_GE(t.ld_ms, 0.0);
  EXPECT_GE(t.lr_ms, 0.0);
  EXPECT_LE(t.aggregation_ms + t.indexing_ms + t.ld_ms + t.lr_ms,
            t.total_ms * 1.05 + 1.0);
}

TEST(FederationTest, RunReportTracesEveryPhaseOncePerCombination) {
  const genome::Cohort cohort = test_cohort();
  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.policy = CollusionPolicy::fixed(1);  // C(3,2) = 3 combinations
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_EQ(result.value().num_combinations, 3u);

  ReportContext context;
  context.obs = &observability;
  const obs::JsonValue report = make_run_report(result.value(), context);
  // Assert on the serialized document, exactly what check_report.py consumes.
  const auto parsed = obs::parse_json(report.dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().find("schema")->as_string(), kRunReportSchema);

  const obs::JsonValue* phases = parsed.value().find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_GT(phases->find("total_ms")->as_number(), 0.0);

  const obs::JsonValue* network = parsed.value().find("network");
  ASSERT_NE(network, nullptr);
  EXPECT_GT(network->find("total_bytes")->as_number(), 0.0);
  EXPECT_FALSE(network->find("links")->as_array().empty());

  const obs::JsonValue* epc = parsed.value().find("epc");
  ASSERT_NE(epc, nullptr);
  ASSERT_EQ(epc->find("per_gdo")->as_array().size(), 3u);
  for (const auto& entry : epc->find("per_gdo")->as_array()) {
    EXPECT_GT(entry.find("peak_bytes")->as_number(), 0.0);
  }

  const obs::JsonValue* trace = parsed.value().find("trace");
  ASSERT_NE(trace, nullptr);
  const auto spans = obs::spans_from_json(*trace);
  ASSERT_TRUE(spans.ok()) << spans.error().to_string();
  std::map<std::string, int> name_counts;
  for (const auto& span : spans.value()) {
    ++name_counts[span.name];
    EXPECT_GE(span.duration_ms, 0.0) << span.name << " left open";
  }
  EXPECT_EQ(name_counts["study"], 1);
  // Building every GDO's planes and sessions is one step of its own.
  EXPECT_EQ(name_counts["step.provision"], 1);
  for (const std::string phase : {"maf", "ld", "lr"}) {
    EXPECT_EQ(name_counts["phase." + phase], 1);
  }
  // The MAF phase is assessed per tile (one tile with tiling off); the LD
  // and LR phases keep one span per combination, and the LR phase records
  // each tile's plane gather as well.
  EXPECT_EQ(name_counts["maf.tile.0"], 1);
  EXPECT_EQ(name_counts["lr.tile.0"], 1);
  for (const std::string phase : {"ld", "lr"}) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(name_counts[phase + ".combination." + std::to_string(c)], 1)
          << phase << " combination " << c;
    }
  }
}

TEST(FederationTest, LdPairsServedByWindowOrOneRoundTrip) {
  // Every pair a walk evaluates is served either by the members' LD windows
  // (pairs within kLdWindow ranks) or, on its first touch, by one round trip
  // that asks all five members at once; however many of the C(6, 4) = 15
  // combination walks read it, a pair costs at most one round trip on a run
  // where no GDO dies.
  const genome::Cohort cohort = test_cohort();
  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 6;
  spec.policy = CollusionPolicy::fixed(2);
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_TRUE(result.value().dead_gdos.empty());
  ASSERT_EQ(result.value().num_combinations, 15u);
  const auto& metrics = observability.metrics;
  const std::uint64_t pairs = metrics.counter("coordinator.ld_pairs_fetched");
  const std::uint64_t windowed = metrics.counter("ld.window_pairs");
  const std::uint64_t trips = metrics.counter("ld.round_trips");
  EXPECT_GT(pairs, 0u);
  EXPECT_EQ(pairs, result.value().ld_pairs_fetched);
  EXPECT_GT(windowed, 0u);
  EXPECT_EQ(windowed + trips, pairs);
  EXPECT_EQ(metrics.counter("coordinator.ld_member_requests"), 5 * trips);
  // One window per member (tiling is off).
  EXPECT_EQ(metrics.counter("ld.window_tiles"), 5u);
}

/// First SNP at or after `from` carried by at least a fifth of the cohort
/// (it survives the MAF filter whichever way the cohort is split).
std::size_t common_snp(const genome::Cohort& cohort, std::size_t from) {
  const std::size_t n = cohort.cases.num_individuals() +
                        cohort.controls.num_individuals();
  for (std::size_t snp = from; snp < cohort.cases.num_snps(); ++snp) {
    std::size_t carriers = 0;
    for (const genome::GenotypeMatrix* m : {&cohort.cases, &cohort.controls}) {
      for (std::size_t i = 0; i < m->num_individuals(); ++i) {
        carriers += m->get(i, snp) ? 1 : 0;
      }
    }
    if (5 * carriers >= n) return snp;
  }
  return cohort.cases.num_snps();
}

/// Overwrites SNPs [first, first + length) with copies of SNP `first` in
/// every genome, cases and reference alike: a run of `length` adjacent L'
/// ranks that are pairwise dependent and tie on association, so the walk's
/// anchor stays on the run's first SNP while the partner moves up to
/// length - 1 ranks away.
void copy_snp_run(genome::Cohort& cohort, std::size_t first,
                  std::size_t length) {
  for (genome::GenotypeMatrix* m : {&cohort.cases, &cohort.controls}) {
    for (std::size_t i = 0; i < m->num_individuals(); ++i) {
      const bool minor = m->get(i, first);
      for (std::size_t snp = first + 1; snp < first + length; ++snp) {
        m->set(i, snp, minor);
      }
    }
  }
}

TEST(FederationTest, DependentRunBeyondWindowFallsBackToFetch) {
  // Two dependent runs longer than the LD window: one of kLdWindow + 2 SNPs
  // (its last partner sits exactly one rank past the window) and one of
  // kLdWindow + 6. Their far pairs must go through the fetch, and the walk
  // must still select exactly what the centralized baseline selects, with
  // the windows whole or split into tiles.
  genome::Cohort cohort = test_cohort();
  const std::size_t short_run = common_snp(cohort, 20);
  copy_snp_run(cohort, short_run, kLdWindow + 2);
  const std::size_t long_run = common_snp(cohort, short_run + 30);
  copy_snp_run(cohort, long_run, kLdWindow + 6);
  ASSERT_LT(long_run + kLdWindow + 6, cohort.cases.num_snps());

  const BaselineResult centralized = run_centralized(cohort, StudyConfig{});
  const auto& l_prime = centralized.outcome.l_prime;
  for (std::size_t snp = short_run; snp < long_run + kLdWindow + 6; ++snp) {
    if (snp >= short_run + kLdWindow + 2 && snp < long_run) continue;
    ASSERT_TRUE(std::binary_search(l_prime.begin(), l_prime.end(),
                                   static_cast<std::uint32_t>(snp)))
        << "run SNP " << snp << " filtered before the LD phase";
  }

  for (std::uint32_t width : {0u, 16u}) {
    obs::Observability observability;
    FederationSpec spec;
    spec.num_gdos = 3;
    spec.config.snp_tile_width = width;
    spec.obs = &observability;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    const auto& metrics = observability.metrics;
    EXPECT_GT(metrics.counter("ld.round_trips"), 0u) << "width " << width;
    EXPECT_EQ(metrics.counter("ld.window_pairs") +
                  metrics.counter("ld.round_trips"),
              metrics.counter("coordinator.ld_pairs_fetched"))
        << "width " << width;
    const auto& outcome = result.value().outcome;
    EXPECT_EQ(outcome.l_prime, centralized.outcome.l_prime);
    EXPECT_EQ(outcome.l_double_prime, centralized.outcome.l_double_prime)
        << "width " << width;
    EXPECT_EQ(outcome.l_safe, centralized.outcome.l_safe) << "width " << width;
  }
}

TEST(FederationTest, MemberOutOfEpcMidStudyEndsTheStudy) {
  // A member that runs out of EPC building its full-width LD window fails on
  // its own, mid-study. With no receive timeout set, the leader must learn
  // of it as of a dropped connection instead of waiting forever, and the
  // study reports the member's capacity_exceeded. The limit sits between
  // the tiled run's largest peak and the monolithic members' peak, so the
  // tiled run still completes under it.
  const genome::Cohort cohort = test_cohort(60, 60, 600, 21);
  auto run_with = [&](std::uint32_t width, std::uint64_t limit) {
    FederationSpec spec;
    spec.num_gdos = 3;
    spec.config.snp_tile_width = width;
    spec.epc_limit = limit;
    return run_federated_study(cohort, spec);
  };
  const auto tiled = run_with(16, tee::EpcMeter::kDefaultLimitBytes);
  ASSERT_TRUE(tiled.ok()) << tiled.error().to_string();
  const auto mono = run_with(0, tee::EpcMeter::kDefaultLimitBytes);
  ASSERT_TRUE(mono.ok()) << mono.error().to_string();
  const std::uint64_t tiled_peak =
      *std::max_element(tiled.value().epc_peak_per_gdo.begin(),
                        tiled.value().epc_peak_per_gdo.end());
  std::uint64_t mono_member_peak = 0;
  for (std::uint32_t g = 0; g < 3; ++g) {
    if (g == mono.value().leader_gdo) continue;
    mono_member_peak =
        std::max(mono_member_peak, mono.value().epc_peak_per_gdo[g]);
  }
  ASSERT_LT(tiled_peak, mono_member_peak);
  const std::uint64_t limit = (tiled_peak + mono_member_peak) / 2;

  const auto tiled_pinched = run_with(16, limit);
  ASSERT_TRUE(tiled_pinched.ok()) << tiled_pinched.error().to_string();
  EXPECT_EQ(tiled_pinched.value().outcome.l_safe, mono.value().outcome.l_safe);
  const auto mono_pinched = run_with(0, limit);
  ASSERT_FALSE(mono_pinched.ok());
  EXPECT_EQ(mono_pinched.error().code, common::Errc::capacity_exceeded)
      << mono_pinched.error().to_string();
}

TEST(FederationTest, UnobservedRunRecordsNothing) {
  // spec.obs == nullptr must stay the zero-cost default: same outcome, no
  // crash anywhere a span or counter would have been recorded.
  const genome::Cohort cohort = test_cohort(200, 200, 60);
  FederationSpec spec;
  spec.num_gdos = 2;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok());
  // The report still serializes from the StudyResult alone.
  const obs::JsonValue report = make_run_report(result.value());
  EXPECT_EQ(report.find("trace"), nullptr);
  EXPECT_EQ(report.find("metrics"), nullptr);
  EXPECT_NE(report.find("phases"), nullptr);
}

TEST(FederationTest, TinyEpcLimitFailsCleanly) {
  const genome::Cohort cohort = test_cohort();
  FederationSpec spec;
  spec.num_gdos = 2;
  spec.epc_limit = 64;  // far below the dataset size
  const auto result = run_federated_study(cohort, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, common::Errc::capacity_exceeded);
}

}  // namespace
}  // namespace gendpr::core
