// Tiled-vs-monolithic equivalence for the pipelined phase engine.
//
// Tiling (StudyConfig::snp_tile_width > 0) changes the message chunking,
// the transient working-set sizes, and the leader/member scheduling — never
// the assembled per-phase state. These tests pin that contract: every tile
// width must produce bit-identical selections to the monolithic protocol,
// across federation sizes, collusion policies, and dead-GDO degraded runs,
// and a tiled run's transient EPC peak must stay under a limit that the
// monolithic run exceeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "gendpr/federation.hpp"
#include "gendpr/report.hpp"
#include "genome/cohort.hpp"
#include "session_harness.hpp"

namespace gendpr::core {
namespace {

genome::Cohort test_cohort(std::size_t n_case, std::size_t n_control,
                           std::size_t n_snps, std::uint64_t seed) {
  genome::CohortSpec spec;
  spec.num_case = n_case;
  spec.num_control = n_control;
  spec.num_snps = n_snps;
  spec.seed = seed;
  return genome::generate_cohort(spec);
}

void expect_same_selection(const StudyResult& tiled, const StudyResult& mono,
                           const std::string& label) {
  EXPECT_EQ(tiled.outcome.l_prime, mono.outcome.l_prime) << label;
  EXPECT_EQ(tiled.outcome.l_double_prime, mono.outcome.l_double_prime)
      << label;
  EXPECT_EQ(tiled.outcome.l_safe, mono.outcome.l_safe) << label;
  EXPECT_EQ(tiled.outcome.final_power, mono.outcome.final_power) << label;
}

TEST(TilingTest, TiledMatchesMonolithicAcrossWidthsAndPolicies) {
  const genome::Cohort cohort = test_cohort(240, 240, 130, 9);
  for (std::uint32_t g : {3u, 4u, 5u}) {
    for (unsigned f : {0u, 1u, 2u}) {
      FederationSpec spec;
      spec.num_gdos = g;
      spec.policy =
          f == 0 ? CollusionPolicy::none() : CollusionPolicy::fixed(f);
      const auto mono = run_federated_study(cohort, spec);
      ASSERT_TRUE(mono.ok()) << "G=" << g << " f=" << f << ": "
                             << mono.error().to_string();
      EXPECT_EQ(mono.value().maf_tiles, 1u);
      EXPECT_EQ(mono.value().lr_tiles, 1u);
      for (std::uint32_t width : {7u, 64u}) {
        FederationSpec tiled_spec = spec;
        tiled_spec.config.snp_tile_width = width;
        const auto tiled = run_federated_study(cohort, tiled_spec);
        const std::string label = "G=" + std::to_string(g) +
                                  " f=" + std::to_string(f) +
                                  " width=" + std::to_string(width);
        ASSERT_TRUE(tiled.ok()) << label << ": " << tiled.error().to_string();
        expect_same_selection(tiled.value(), mono.value(), label);
        // 130 announced SNPs split into ceil(130/width) phase-1 tiles.
        EXPECT_EQ(tiled.value().maf_tiles, (130 + width - 1) / width) << label;
        EXPECT_GE(tiled.value().lr_tiles, 1u) << label;
      }
    }
  }
}

TEST(TilingTest, WidthBeyondStudyCollapsesToMonolithic) {
  const genome::Cohort cohort = test_cohort(200, 200, 80, 11);
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.policy = CollusionPolicy::fixed(1);
  const auto mono = run_federated_study(cohort, spec);
  ASSERT_TRUE(mono.ok());

  FederationSpec wide = spec;
  wide.config.snp_tile_width = 100000;  // >= num_snps: one tile
  const auto collapsed = run_federated_study(cohort, wide);
  ASSERT_TRUE(collapsed.ok());
  EXPECT_EQ(collapsed.value().maf_tiles, 1u);
  EXPECT_EQ(collapsed.value().lr_tiles, 1u);
  expect_same_selection(collapsed.value(), mono.value(), "width>=total");
}

TEST(TilingTest, EmptyFunnelCompletesWithZeroLrTiles) {
  // maf_cutoff = 1.0 retains nothing (MAF tops out at 0.5): L' is empty,
  // the LD walks and LR selection have no input, and the phase-3 plan must
  // be empty - zero tiles, no phase-2 broadcast bodies - instead of a
  // single phantom tile over zero SNPs. Exercised monolithic and tiled.
  const genome::Cohort cohort = test_cohort(200, 200, 80, 11);
  for (std::uint32_t width : {0u, 16u}) {
    FederationSpec spec;
    spec.num_gdos = 3;
    spec.policy = CollusionPolicy::fixed(1);
    spec.config.maf_cutoff = 1.0;
    spec.config.snp_tile_width = width;
    const auto result = run_federated_study(cohort, spec);
    ASSERT_TRUE(result.ok())
        << "width=" << width << ": " << result.error().to_string();
    const StudyResult& r = result.value();
    EXPECT_TRUE(r.outcome.l_prime.empty());
    EXPECT_TRUE(r.outcome.l_double_prime.empty());
    EXPECT_TRUE(r.outcome.l_safe.empty());
    EXPECT_EQ(r.lr_tiles, 0u);
    EXPECT_EQ(r.phase2_body_bytes, 0u);
    EXPECT_EQ(r.outcome.final_power, 0.0);
  }
}

TEST(TilingTest, DegradedDeadGdoRunMatchesMonolithic) {
  // A member that crashes before submitting any summary is declared dead
  // during the summary gather in both modes, so the surviving combinations
  // — and hence the final selection — must match bit for bit.
  const genome::Cohort cohort = test_cohort(300, 240, 90, 13);
  auto run_with_crashing_member = [&](std::uint32_t width) {
    tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x61}};
    tee::Platform platform0{1, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{1})};
    tee::Platform platform1{2, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{2})};
    tee::Platform platform2{3, authority,
                            crypto::Csprng(std::array<std::uint8_t, 32>{3})};
    StudyConfig config;
    config.snp_tile_width = width;
    // f = 1: combinations {0,1}, {0,2}, {1,2} - losing GDO 2 leaves {0,1}.
    LeaderSession leader(platform0, 0, 3,
                         genome::BitPlanes(cohort.cases, 0, 100),
                         genome::BitPlanes(cohort.controls), config,
                         CollusionPolicy::fixed(1));
    leader.set_receive_timeout(std::chrono::milliseconds(400));
    MemberSession honest(platform1, 1, 0,
                         genome::BitPlanes(cohort.cases, 100, 200));
    honest.set_receive_timeout(std::chrono::milliseconds(20000));
    // GDO 2 handshakes and processes the announce, then goes silent without
    // ever sending a summary: a crash right before phase-1 input
    // submission. Unlike a crash *after* the summary, this shape is
    // identical under any tile width, so the tiled and monolithic degraded
    // runs see the same dead set at the same phase.
    ScriptedMember crashing(
        platform2, 2, 0, genome::BitPlanes(cohort.cases, 200, 300),
        ScriptedMember::silent_at(ScriptedMember::Stop::after_announce));
    SessionHarness harness;
    harness.add(0, leader);
    harness.add(1, honest);
    harness.add(2, crashing);
    harness.run();
    EXPECT_TRUE(honest.status().ok()) << honest.status().error().to_string();
    return leader.status().ok() ? common::Result<StudyResult>(leader.result())
                                : common::Result<StudyResult>(
                                      leader.status().error());
  };

  const auto mono = run_with_crashing_member(0);
  ASSERT_TRUE(mono.ok()) << mono.error().to_string();
  EXPECT_EQ(mono.value().dead_gdos, (std::vector<std::uint32_t>{2}));

  const auto tiled = run_with_crashing_member(16);
  ASSERT_TRUE(tiled.ok()) << tiled.error().to_string();
  EXPECT_EQ(tiled.value().dead_gdos, (std::vector<std::uint32_t>{2}));
  EXPECT_GT(tiled.value().maf_tiles, 1u);
  expect_same_selection(tiled.value(), mono.value(), "degraded width=16");
}

TEST(TilingTest, TiledRunFitsUnderEpcLimitMonolithicExceeds) {
  // Self-calibrating flat-memory check: measure both modes' EPC peaks under
  // a generous limit, then re-run with a limit placed strictly between the
  // leader's tiled and monolithic peaks. The tiled engine (O(tile)
  // transient bases) must complete with the identical selection; the
  // monolithic run must fail capacity_exceeded when the leader expands its
  // full-width basis. The leader gets a deliberately oversized case slice
  // so its basis — and therefore its peak — dominates the member's and the
  // pinch point trips only the leader.
  const genome::Cohort cohort = test_cohort(420, 200, 220, 17);
  const std::uint32_t kWidth = 12;
  struct Run {
    common::Result<StudyResult> result;
    std::uint64_t leader_peak = 0;
    std::uint64_t member_peak = 0;
  };
  auto run_with = [&](std::uint32_t width, std::uint64_t limit) {
    tee::QuotingAuthority authority{std::array<std::uint8_t, 32>{0x71}};
    tee::Platform leader_platform{
        1, authority, crypto::Csprng(std::array<std::uint8_t, 32>{1}), limit};
    tee::Platform member_platform{
        2, authority, crypto::Csprng(std::array<std::uint8_t, 32>{2}), limit};
    StudyConfig config;
    config.snp_tile_width = width;
    LeaderSession leader(leader_platform, 0, 2,
                         genome::BitPlanes(cohort.cases, 0, 300),
                         genome::BitPlanes(cohort.controls), config,
                         CollusionPolicy::none());
    leader.set_receive_timeout(std::chrono::milliseconds(20000));
    MemberSession member(member_platform, 1, 0,
                         genome::BitPlanes(cohort.cases, 300, 420));
    member.set_receive_timeout(std::chrono::milliseconds(20000));
    SessionHarness harness;
    harness.add(0, leader);
    harness.add(1, member);
    harness.run();
    Run run{leader.status().ok()
                ? common::Result<StudyResult>(leader.result())
                : common::Result<StudyResult>(leader.status().error()),
            0, 0};
    run.leader_peak = leader_platform.epc().peak();
    run.member_peak = member_platform.epc().peak();
    return run;
  };

  const Run mono = run_with(0, tee::EpcMeter::kDefaultLimitBytes);
  ASSERT_TRUE(mono.result.ok()) << mono.result.error().to_string();
  const Run tiled = run_with(kWidth, tee::EpcMeter::kDefaultLimitBytes);
  ASSERT_TRUE(tiled.result.ok()) << tiled.result.error().to_string();
  expect_same_selection(tiled.result.value(), mono.result.value(),
                        "generous limit");
  ASSERT_GT(tiled.result.value().lr_tiles, 1u)
      << "L'' collapsed below the tile width; the sweep proves nothing";

  ASSERT_LT(tiled.leader_peak, mono.leader_peak)
      << "tiling did not lower the leader's transient peak";
  const std::uint64_t pinch = (tiled.leader_peak + mono.leader_peak) / 2;
  // The pinch must bite the leader's full-width basis and nothing else.
  ASSERT_LT(mono.member_peak, pinch);
  ASSERT_LT(tiled.member_peak, pinch);

  const Run tiled_pinched = run_with(kWidth, pinch);
  ASSERT_TRUE(tiled_pinched.result.ok())
      << tiled_pinched.result.error().to_string();
  expect_same_selection(tiled_pinched.result.value(), mono.result.value(),
                        "pinched limit");

  const Run mono_pinched = run_with(0, pinch);
  ASSERT_FALSE(mono_pinched.result.ok());
  EXPECT_EQ(mono_pinched.result.error().code,
            common::Errc::capacity_exceeded)
      << mono_pinched.result.error().to_string();
}

TEST(TilingTest, PipelineCountersReportOverlap) {
  const genome::Cohort cohort = test_cohort(200, 200, 100, 19);
  obs::Observability observability;
  FederationSpec spec;
  spec.num_gdos = 3;
  spec.policy = CollusionPolicy::fixed(1);
  spec.config.snp_tile_width = 10;
  spec.obs = &observability;
  const auto result = run_federated_study(cohort, spec);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().snp_tile_width, 10u);
  EXPECT_EQ(result.value().maf_tiles, 10u);
  // Every MAF tile is assessed through the inline pipeline path (the last
  // summary arrival makes the final tile ready), and the report carries
  // both the tiling shape and the pipeline counters.
  EXPECT_EQ(result.value().maf_tiles_assessed_inline, 10u);
  EXPECT_GE(result.value().lr_tiles, 1u);
  EXPECT_FALSE(result.value().kernel_backend.empty());

  ReportContext context;
  context.obs = &observability;
  const obs::JsonValue report = make_run_report(result.value(), context);
  const obs::JsonValue* tiles = report.find("tiles");
  ASSERT_NE(tiles, nullptr);
  EXPECT_EQ(tiles->find("width")->as_number(), 10.0);
  EXPECT_EQ(tiles->find("count")->as_number(), 10.0);
  const obs::JsonValue* metrics = report.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("coordinator.maf_tiles")->as_number(), 10.0);
  EXPECT_EQ(
      counters->find("pipeline.maf_tiles_assessed_inline")->as_number(),
      10.0);
}

}  // namespace
}  // namespace gendpr::core
