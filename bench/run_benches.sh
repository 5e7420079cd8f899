#!/usr/bin/env bash
# Rewrites the committed bench outputs from a build:
#
#   * repro/<program>.txt for every pinned program: its exact stdout,
#     which ctest's repro.<program> test compares byte for byte;
#   * BENCH_abl_churn.txt, BENCH_abl_sparse.txt and BENCH_abl_serving.txt
#     at the repo root (these carry timing or RSS lines, so no test pins
#     them).
#
# Usage:
#
#   bench/run_benches.sh [build-dir]
#
# The build dir defaults to ./build and must already contain the bench
# binaries (configure with the top-level CMakeLists and build first). The
# bench_solver_core microbenchmarks are a development tool with no
# committed output; the timings of record are the benchmark/ records
# (benchmark/README.md).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
pinned=()
for file in "${repo_root}"/repro/*.txt; do
  pinned+=("$(basename "${file}" .txt)")
done
ablations=(abl_churn abl_sparse abl_serving)

for name in "${pinned[@]}" "${ablations[@]}"; do
  if [[ ! -x "${build_dir}/bench/${name}" ]]; then
    echo "error: ${build_dir}/bench/${name} not found;" \
      "build the ${name} target" >&2
    exit 1
  fi
done

for name in "${pinned[@]}"; do
  "${build_dir}/bench/${name}" > "${repo_root}/repro/${name}.txt"
  echo "wrote ${repo_root}/repro/${name}.txt"
done
for name in "${ablations[@]}"; do
  "${build_dir}/bench/${name}" > "${repo_root}/BENCH_${name}.txt"
  echo "wrote ${repo_root}/BENCH_${name}.txt"
done
