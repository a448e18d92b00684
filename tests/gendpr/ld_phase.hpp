// Drives a Coordinator's LD phase the way the leader session does, for the
// trusted-module tests: every member's LD windows first, then the walk,
// answering each MomentsRequest it opens with a blocking fetch. A member
// whose count the fetch leaves out is marked dead, as the session's deadline
// would.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "gendpr/trusted.hpp"

namespace gendpr::core {

/// Co-occurrence counts of one pair, indexed by GDO (empty slot = no
/// answer from that GDO).
using MemberCounts = std::vector<std::optional<std::uint32_t>>;

/// Answers one MomentsRequest for `targets`, indexed by GDO.
using BlockingFetch = std::function<MemberCounts(
    const MomentsRequest&, const std::vector<std::uint32_t>&)>;

/// An honest member's windows over every tile of its LD plan.
inline std::vector<LdWindow> member_windows(const GdoEnclave& member) {
  const genome::TilePlan plan = member.ld_plan();
  std::vector<LdWindow> windows;
  for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
    windows.push_back(member.make_ld_window(plan.begin(k), plan.end(k), k));
  }
  return windows;
}

/// Windows of a scripted member whose every in-window pair counts `co`,
/// over the coordinator's LD plan.
inline std::vector<LdWindow> uniform_windows(const Coordinator& coordinator,
                                             std::uint32_t co) {
  const genome::TilePlan& plan = coordinator.ld_plan();
  std::vector<LdWindow> windows;
  for (std::uint32_t k = 0; k < plan.tile_count(); ++k) {
    LdWindow window;
    window.tile_index = k;
    for (std::uint32_t rank = plan.begin(k); rank < plan.end(k); ++rank) {
      for (std::uint32_t d = 1; d <= kLdWindow; ++d) {
        window.counts.push_back(d <= rank ? co : 0);
      }
    }
    windows.push_back(std::move(window));
  }
  return windows;
}

/// Feeds `windows[g]` for every member g, then finishes the LD phase with
/// `fetch` answering the pairs the windows do not cover. A refused window
/// or answer fails the phase with its error.
inline common::Result<Phase2Result> run_ld_phase(
    Coordinator& coordinator,
    const std::map<std::uint32_t, std::vector<LdWindow>>& windows,
    const BlockingFetch& fetch) {
  for (const auto& [gdo, stream] : windows) {
    for (const LdWindow& window : stream) {
      if (common::Status s = coordinator.add_ld_window(gdo, window); !s.ok()) {
        return s.error();
      }
    }
  }
  for (;;) {
    auto opened = coordinator.advance_ld_walks();
    if (!opened.ok()) return opened.error();
    if (!opened.value().has_value()) break;
    const MomentsRequest request = *opened.value();
    const std::set<std::uint32_t> owing = coordinator.members_owing_moments();
    const std::vector<std::uint32_t> targets(owing.begin(), owing.end());
    const MemberCounts counts = fetch(request, targets);
    for (std::uint32_t g : targets) {
      if (g >= counts.size() || !counts[g].has_value()) {
        (void)coordinator.mark_gdo_dead(g);
        continue;
      }
      const common::Status s = coordinator.add_moments(
          g, MomentsResponse{request.request_id, *counts[g]});
      if (!s.ok()) return s.error();
    }
  }
  return coordinator.run_ld_phase();
}

}  // namespace gendpr::core
