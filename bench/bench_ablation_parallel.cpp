// Ablation: §5.6's claim that combination evaluations "can be efficiently
// conducted in parallel inside the leader enclave". Runs the same
// collusion-tolerant study with and without the study's pool, which builds
// the GDOs' bit planes and runs the per-combination LR selections.
//
// Note: on a single-core host the two are expected to tie; the bench also
// reports the combination count so the reader can relate speedup to
// available parallelism.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace gendpr;
using namespace gendpr::bench;

void run_mode(benchmark::State& state, bool parallel) {
  const std::uint32_t num_gdos = static_cast<std::uint32_t>(state.range(0));
  const genome::Cohort& cohort = cohort_for(kPaperCasesHalf, 1000);
  core::FederationSpec spec;
  spec.num_gdos = num_gdos;
  spec.policy = core::CollusionPolicy::conservative();
  spec.parallel_combinations = parallel;
  core::StudyResult result;
  for (auto _ : state) {
    auto run = core::run_federated_study(cohort, spec);
    if (!run.ok()) {
      state.SkipWithError(run.error().to_string().c_str());
      return;
    }
    result = std::move(run).take();
  }
  state.counters["LRtest_ms"] = result.timings.lr_ms;
  state.counters["Total_ms"] = result.timings.total_ms;
  state.counters["Combinations"] =
      static_cast<double>(result.num_combinations);
  state.counters["HardwareThreads"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

void BM_Parallel_Combinations(benchmark::State& state) {
  run_mode(state, true);
}
BENCHMARK(BM_Parallel_Combinations)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Serial_Combinations(benchmark::State& state) {
  run_mode(state, false);
}
BENCHMARK(BM_Serial_Combinations)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
