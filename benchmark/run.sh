#!/usr/bin/env bash
# Builds the benchmark (Release, into build-bench/ at the repository root)
# and runs one workload in its own process.
#
#   benchmark/run.sh <workload> [--seed S] [--seconds T] [--trace]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh --smoke | --selftest
#
# The last line of standard output is the run's result object; a JSON
# record with the build and machine details goes to
# build-bench/records/<workload>-seed<S>-trace<T>.json. Exits non-zero when
# the build fails or a correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

args=()
workload=""
seed=""
trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --seconds) args+=(--seconds "$2"); shift 2 ;;
    --smoke | --selftest) args+=("$1"); shift ;;
    -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    *) workload="$1"; shift ;;
  esac
done

mkdir -p "$build/tmp" "$build/records"
export TMPDIR="$build/tmp"
jobs="$(nproc)"
[ "$jobs" -gt 4 ] && jobs=4
if ! {
  { [ -f "$build/CMakeFiles/cmake.check_cache" ] ||
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
    cmake --build "$build" -j "$jobs" --target fcbench
} >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (log: $build/build.log)" >&2
  exit 3
fi

if [ -n "$workload" ]; then
  sha="unknown"
  if [ -e "$root/.git" ]; then
    sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
  fi
  args+=(--workload "$workload" --trace "$trace" --git-sha "$sha")
  [ -n "$seed" ] && args+=(--seed "$seed")
  args+=(--record "$build/records/$workload-seed${seed:-default}-trace$trace.json")
fi
exec "$build/fcbench" "${args[@]}"
