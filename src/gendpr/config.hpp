// Study configuration: the privacy-assessment thresholds of §3.2/§7.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace gendpr::core {

/// Thresholds controlling the three verification phases. Defaults are the
/// SecureGenome settings the paper adopts in §7: 0.05 MAF cut-off, 1e-5 LD
/// cut-off, 0.1 false-positive rate, 0.9 identification-power threshold.
struct StudyConfig {
  double maf_cutoff = 0.05;
  double ld_cutoff = 1e-5;
  double lr_false_positive_rate = 0.1;
  double lr_power_threshold = 0.9;
  /// SNP-tile width for the pipelined phase engine. 0 disables tiling (one
  /// tile spanning the whole study — the original monolithic protocol).
  /// With a positive width, phase-1 summaries and phase-3 inputs travel as
  /// per-tile messages: message bodies and transient enclave working sets
  /// stay O(tile) instead of O(num_snps), and the leader assesses tile k
  /// while members stream tile k+1. Tiling never changes results: the
  /// assembled per-phase state is independent of the tile boundaries.
  std::uint32_t snp_tile_width = 0;
  /// Ignored: the collusion sweep has one mode. Kept only because the
  /// benchmark harness still sets it; removed by the next benchmark-only
  /// change. Like every field here it stays on the leader: members receive
  /// only the study's SNP count and `snp_tile_width`.
  bool prune = true;

  bool operator==(const StudyConfig&) const = default;
};

/// Success when all four thresholds are finite and the LR false-positive
/// rate and power limit lie in [0, 1]; otherwise invalid_argument naming
/// the first field out of domain. The CLI, run_federated_study and the
/// leader session check it before a study starts.
common::Status validate(const StudyConfig& config);

/// Collusion-tolerance policy (§5.6).
struct CollusionPolicy {
  enum class Mode : std::uint8_t {
    none,       // f = 0: single combination of all G GDOs
    fixed_f,    // C(G, G-f) combinations for one f
    all_f,      // conservative: every f in {1, .., G-1}
  };
  Mode mode = Mode::none;
  unsigned f = 0;  // used when mode == fixed_f

  static CollusionPolicy none() { return {Mode::none, 0}; }
  static CollusionPolicy fixed(unsigned f) { return {Mode::fixed_f, f}; }
  static CollusionPolicy conservative() { return {Mode::all_f, 0}; }
};

}  // namespace gendpr::core
