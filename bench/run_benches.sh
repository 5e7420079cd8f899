#!/usr/bin/env bash
# Runs the anytime-budget ablation (BENCH_abl_deadline.txt), the
# churn-repair ablation (BENCH_abl_churn.txt), the sparse-contention
# ablation (BENCH_abl_sparse.txt) and the trace-serving ablation
# (BENCH_abl_serving.txt) and writes them at the repo root. Usage:
#
#   bench/run_benches.sh [build-dir]
#
# The build dir defaults to ./build and must already contain
# bench/abl_deadline, bench/abl_churn, bench/abl_sparse and
# bench/abl_serving (configure with the top-level CMakeLists and build
# those targets first). The bench_solver_core microbenchmarks are a
# development tool with no committed output; the timings of record are
# the benchmark/ records (benchmark/README.md).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
ablations=(deadline churn sparse serving)

for name in "${ablations[@]}"; do
  if [[ ! -x "${build_dir}/bench/abl_${name}" ]]; then
    echo "error: ${build_dir}/bench/abl_${name} not found;" \
      "build the abl_${name} target" >&2
    exit 1
  fi
done

for name in "${ablations[@]}"; do
  "${build_dir}/bench/abl_${name}" > "${repo_root}/BENCH_abl_${name}.txt"
  echo "wrote ${repo_root}/BENCH_abl_${name}.txt"
done
