// Reproduces Table 5: collusion-tolerant GenDPR at 10,000 SNPs and 14,860
// genomes, for G in {3,4,5} and every fixed f plus the conservative
// f={1..G-1} mode. For each setting it reports:
//   * SafeReleased  - SNPs of the f=0 release the tolerant run certifies
//   * Vulnerable    - f=0 SNPs withheld because some honest-subset
//                     combination would expose them to colluders
//   * ReleasedPct   - SafeReleased / |f=0 release| (paper: 71.7%-79.1%)
//   * Combinations  - C(G, G-f) (or the sum over f for conservative mode)
//   * Total_ms      - running time (paper: conservative mode costs the most;
//                     f=G-1 is the cheapest non-trivial setting)
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"

namespace {

using namespace gendpr;
using namespace gendpr::bench;

std::size_t intersection_size(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

const std::vector<std::uint32_t>& f0_safe_set(const genome::Cohort& cohort,
                                              std::uint32_t num_gdos) {
  static std::map<std::uint32_t, std::vector<std::uint32_t>> cache;
  auto it = cache.find(num_gdos);
  if (it == cache.end()) {
    core::FederationSpec spec;
    spec.num_gdos = num_gdos;
    auto run = core::run_federated_study(cohort, spec);
    it = cache.emplace(num_gdos, run.ok() ? run.value().outcome.l_safe
                                          : std::vector<std::uint32_t>{})
             .first;
  }
  return it->second;
}

/// state.range(0) = G; state.range(1) = f, or -1 for conservative mode.
void BM_Table5_Collusion(benchmark::State& state) {
  const std::uint32_t num_gdos = static_cast<std::uint32_t>(state.range(0));
  const std::int64_t f = state.range(1);
  const genome::Cohort& cohort =
      cohort_for(kPaperCasesFull, scaled_snps(10000));
  const auto& f0_safe = f0_safe_set(cohort, num_gdos);

  obs::Observability observability;
  core::FederationSpec spec;
  spec.num_gdos = num_gdos;
  spec.policy = f < 0 ? core::CollusionPolicy::conservative()
                      : core::CollusionPolicy::fixed(
                            static_cast<unsigned>(f));
  spec.obs = report_dir() != nullptr ? &observability : nullptr;
  core::StudyResult result;
  for (auto _ : state) {
    auto run = core::run_federated_study(cohort, spec);
    if (!run.ok()) {
      state.SkipWithError(run.error().to_string().c_str());
      return;
    }
    result = std::move(run).take();
  }

  const std::size_t released =
      intersection_size(result.outcome.l_safe, f0_safe);
  state.counters["SafeReleased"] = static_cast<double>(released);
  state.counters["Vulnerable"] =
      static_cast<double>(f0_safe.size() - released);
  state.counters["ReleasedPct"] =
      f0_safe.empty() ? 0.0
                      : 100.0 * static_cast<double>(released) /
                            static_cast<double>(f0_safe.size());
  state.counters["F0Release"] = static_cast<double>(f0_safe.size());
  state.counters["Combinations"] =
      static_cast<double>(result.num_combinations);
  state.counters["Total_ms"] = result.timings.total_ms;
  state.counters["Phase2Bytes"] =
      static_cast<double>(result.phase2_body_bytes);
  write_bench_report("table5_g" + std::to_string(num_gdos) + "_f" +
                         (f < 0 ? std::string("cons") : std::to_string(f)),
                     result, &observability);
}
BENCHMARK(BM_Table5_Collusion)
    // G = 3: f = 1, 2, {1,2}
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({3, -1})
    // G = 4: f = 1, 2, 3, {1,2,3}
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Args({4, -1})
    // G = 5: f = 1, 2, 3, 4, {1,2,3,4}
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 3})
    ->Args({5, 4})
    ->Args({5, -1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
