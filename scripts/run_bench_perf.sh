#!/usr/bin/env bash
# Regenerate the committed bench_perf JSON trajectory.
#
# Usage:
#   scripts/run_bench_perf.sh [output.json] [build-dir]
#
# Builds bench_perf in Release (-O3) and writes one JSON document
# with every benchmark. The committed trajectory files at the repo
# root (BENCH_baseline.json, BENCH_pr6.json, ...) are produced by
# exactly this invocation, so successive snapshots stay comparable:
#
#   scripts/run_bench_perf.sh BENCH_baseline.json
#
# Each benchmark runs 5 repetitions and the JSON keeps only the
# mean/median/stddev/cv aggregates, so a snapshot carries its own
# spread; compare medians, and distrust a row whose cv is large.
#
# Notes:
#   - google-benchmark in this toolchain takes --benchmark_min_time
#     as a plain double (seconds), without the "s" suffix.
#   - Run on an otherwise idle machine; the hot loops are
#     single-digit-microsecond and sensitive to noise.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-bench_perf.json}"
build_dir="${2:-${repo_root}/build}"

case "${out}" in
  /*) ;;
  *) out="$(pwd)/${out}" ;;
esac

cmake -S "${repo_root}" -B "${build_dir}" \
      -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" --target bench_perf -j >/dev/null

"${build_dir}/bench_perf" \
    --benchmark_format=json \
    --benchmark_out_format=json \
    --benchmark_out="${out}" \
    --benchmark_min_time=0.2 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true

echo "wrote ${out}"
