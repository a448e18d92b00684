#!/usr/bin/env bash
# Builds the benchmark binaries in Release and runs a selection of them with
# JSON output, writing BENCH_<name>.json at the repo root (gitignored).
#
# Usage:
#   tools/run_bench.sh [bench_name ...]
#
# With no arguments, runs the ablation benches touched by the bit-plane work
# plus the end-to-end runtime figure. GENDPR_BENCH_SCALE (e.g. 0.1) is
# forwarded to the bench processes for quick smoke runs, and
# GENDPR_REPORT_DIR makes the runtime benches drop a gendpr.run_report.v2
# document per federated run into that directory.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"

benches=("$@")
if [[ ${#benches[@]} -eq 0 ]]; then
  benches=(bench_ablation_crypto bench_ablation_kernels bench_fig6_runtime)
fi

# Reject unknown targets up front: a typo'd name used to surface only as a
# cryptic cmake --target error after a full configure.
for bench in "${benches[@]}"; do
  if [[ ! -f "${repo_root}/bench/${bench}.cpp" ]]; then
    echo "error: unknown bench target '${bench}' (no bench/${bench}.cpp)" >&2
    exit 1
  fi
done

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target "${benches[@]}"

for bench in "${benches[@]}"; do
  out="${repo_root}/BENCH_${bench#bench_}.json"
  # Write to a temp file and mv on success so an interrupted or failed bench
  # never leaves a stale/truncated BENCH_*.json behind.
  tmp="$(mktemp "${out}.XXXXXX")"
  trap 'rm -f "${tmp}"' EXIT
  echo "== ${bench} -> ${out}"
  "${build_dir}/bench/${bench}" \
    --benchmark_format=json \
    --benchmark_out="${tmp}" \
    --benchmark_out_format=json
  mv "${tmp}" "${out}"
  trap - EXIT
done
