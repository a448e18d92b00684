// Ablation: what do the SIMD bit-plane kernels buy? (DESIGN.md §2.2).
//
// Benches the two dispatched kernels — plane popcount (allele counts) and
// AND+popcount over plane pairs (the non-marginal LD moment) — per backend
// over protocol-sized inputs, so the portable/AVX2/AVX-512 columns of the
// same kernel are directly comparable. A backend the CPU lacks is skipped,
// not faked. The tail bench runs the same federated study monolithic and
// SNP-tiled to show the tiling ablation on end-to-end time and the leader's
// transient EPC peak (and, with GENDPR_REPORT_DIR set, drops a tiled run
// report CI can feed through tools/check_report.py).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "genome/kernels/kernels.hpp"

namespace {

using namespace gendpr;
using namespace gendpr::bench;
using genome::kernels::KernelBackend;

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

bool skip_if_unavailable(benchmark::State& state, KernelBackend backend) {
  if (!genome::kernels::kernel_backend_available(backend)) {
    state.SkipWithError("kernel backend unavailable on this CPU");
    return true;
  }
  state.SetLabel(genome::kernels::kernel_backend_name(backend));
  return false;
}

/// Allele-count kernel: one popcount pass over a bit-plane. 2,048 words is
/// one plane of a ~131k-individual aggregate; 32,768 words is the 100k-SNP
/// wide-study shape transposed (many short planes behave like one long one
/// since the kernel is a flat reduction).
void BM_Kernels_Popcount(benchmark::State& state) {
  const auto backend = static_cast<KernelBackend>(state.range(1));
  if (skip_if_unavailable(state, backend)) return;
  const auto& ops = genome::kernels::kernel_ops_for(backend);
  const auto words = random_words(state.range(0), 0xc0ffee);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.popcount_words(words.data(), words.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          sizeof(std::uint64_t));
}
BENCHMARK(BM_Kernels_Popcount)
    ->ArgNames({"words", "backend"})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({2048, 2})
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Args({32768, 2});

/// LD-moments kernel: popcount(a & b) over two planes. This is the inner
/// loop of every pairwise moment in the greedy LD walk — the hottest kernel
/// of a wide study.
void BM_Kernels_AndPopcount(benchmark::State& state) {
  const auto backend = static_cast<KernelBackend>(state.range(1));
  if (skip_if_unavailable(state, backend)) return;
  const auto& ops = genome::kernels::kernel_ops_for(backend);
  const auto a = random_words(state.range(0), 0xdead);
  const auto b = random_words(state.range(0), 0xbeef);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops.and_popcount_words(a.data(), b.data(), a.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 2 *
                          sizeof(std::uint64_t));
}
BENCHMARK(BM_Kernels_AndPopcount)
    ->ArgNames({"words", "backend"})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({2048, 2})
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Args({32768, 2});

/// Tiling ablation: the same federated study monolithic (width 0) vs
/// SNP-tiled. Total time barely moves (tiling only re-chunks messages); the
/// leader's transient EPC peak is what drops — that headroom is what admits
/// the 100k-SNP wide study of EXPERIMENTS.md under a fixed EPC limit.
void BM_Kernels_TiledStudy(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  const genome::Cohort& cohort = cohort_for(kPaperCasesHalf, 1000);
  double total_ms = 0;
  std::uint64_t leader_peak = 0;
  core::StudyResult last;
  obs::Observability observability;
  for (auto _ : state) {
    core::FederationSpec spec;
    spec.num_gdos = 3;
    spec.config.snp_tile_width = width;
    spec.obs = &observability;
    auto run = core::run_federated_study(cohort, spec);
    if (!run.ok()) {
      state.SkipWithError(run.error().to_string().c_str());
      return;
    }
    total_ms = run.value().timings.total_ms;
    leader_peak = run.value().epc_peak_leader;
    last = run.value();
  }
  state.counters["Total_ms"] = total_ms;
  state.counters["LeaderEpcPeak_KiB"] = static_cast<double>(leader_peak) / 1024;
  state.counters["MafTiles"] = last.maf_tiles;
  state.counters["LrTiles"] = last.lr_tiles;
  state.SetLabel(last.kernel_backend);
  write_bench_report("kernels_tiled_w" + std::to_string(width), last,
                     &observability);
}
BENCHMARK(BM_Kernels_TiledStudy)
    ->ArgNames({"tile_width"})
    ->Arg(0)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
