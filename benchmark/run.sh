#!/usr/bin/env bash
# Builds the benchmark (Release, into build-benchmark/ at the repo root) and
# runs workloads. Every metric is printed by name with its unit; the last
# line of each workload's output is its JSON result.
#
#   benchmark/run.sh [--workload NAME | --workloads a,b,...] [--seed N]
#                    [--seconds S] [--trace [0|1]] [--out FILE] [--quick]
#
# Defaults: both workloads, seed 1, 35 s measured per workload, no trace.
# --trace splits those seconds between an untraced run and a traced one
# that reports the per-layer metrics and writes
# build-benchmark/trace/<workload>.trace.json.
# --out appends one JSON record per workload (see compare.py). --quick runs
# the checker self-test, then every workload for 1 s.
# Exits nonzero when a build fails or any output is wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"
workloads="lib_incache_point,lib_css_tiered"
seed=1
seconds=35
trace=0
out=""
quick=0

usage() { sed -n '2,15p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; }

while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--workloads) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --out) out="$2"; shift 2 ;;
    --quick) quick=1; seconds=1; shift ;;
    -h|--help) usage; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; usage; exit 2 ;;
  esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: $root/src is missing; the benchmark builds the store from it" >&2
  exit 1
fi

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" "${generator[@]}" \
         -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi
bin="$build/costperf_benchmark"

COSTPERF_BENCHMARK_COMMIT="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"
export COSTPERF_BENCHMARK_COMMIT

status=0
if [ "$quick" = 1 ]; then
  "$bin" --selftest || status=1
fi
args=(--seed "$seed" --seconds "$seconds" --trace "$trace"
      --trace-dir "$build/trace")
if [ -n "$out" ]; then args+=(--out "$out"); fi
IFS=',' read -r -a list <<< "$workloads"
for w in "${list[@]}"; do
  "$bin" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
