// Comparator pipelines from the paper's evaluation (§7).
//
// * Centralized baseline: SecureGenome's three verifications inside a single
//   enclave that pools every genome (the architecture GenDPR replaces). Used
//   for the running-time comparison of Figs. 5-6 and the correctness ground
//   truth of Table 4 - GenDPR must select exactly the same SNP sets.
// * Naive distributed baseline: each GDO runs LD and LR-test on its local
//   dataset alone and the leader intersects the local survivor lists. Table 4
//   (bold rows) shows this misselects; it exists to demonstrate why GenDPR's
//   frequency-sharing adaptations are necessary.
#pragma once

#include <cstdint>
#include <vector>

#include "gendpr/config.hpp"
#include "gendpr/session.hpp"
#include "genome/cohort.hpp"

namespace gendpr::core {

struct BaselineResult {
  SelectionOutcome outcome;
  PhaseTimings timings;
};

/// SecureGenome in one central TEE: pools all case genomes plus the
/// reference panel and runs MAF -> LD -> LR-test.
BaselineResult run_centralized(const genome::Cohort& cohort,
                               const StudyConfig& config);

/// Naive distributed protocol: global MAF (count aggregation is sound), but
/// LD pruning and LR-test run per GDO on local data only; the coordinator
/// intersects the per-GDO survivor lists after each of those phases.
BaselineResult run_naive_distributed(const genome::Cohort& cohort,
                                     const StudyConfig& config,
                                     std::uint32_t num_gdos);

}  // namespace gendpr::core
