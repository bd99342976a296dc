#!/usr/bin/env bash
# Two-stage CI entry point (see DESIGN.md "Static analysis layer" for
# how the stages divide the invariant surface):
#
#   stage 1 — correctness gate (always): tier-1 Release build + full
#             ctest, then the ANALYZE lane (Clang thread-safety: lock
#             *and* epoch capabilities as compile errors). Stage 1
#             failing means the change is wrong; nothing else runs.
#   stage 2 — depth lanes (after stage 1): tidy, then the sanitizer
#             matrix + simd (the scalar search and table CRC-32C
#             fallbacks, built only with -DCOSTPERF_NO_SIMD=ON) + stress
#             + serve + chaos (network
#             fault injection under TSan) + benchmark (the repo
#             benchmark's quick run, which builds ../src outside the root
#             build and so is the only lane that catches a src/ API change
#             that breaks it) via scripts/check.sh. Lanes whose toolchain
#             is missing skip with a message (tidy can be forced fatal with
#             COSTPERF_REQUIRE_TIDY=1).
#
# Usage: scripts/ci.sh [--stage1-only]
#   `scripts/check.sh --list` enumerates every lane individually.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

echo "=== CI stage 1: build + tests ==="
cmake -S "$ROOT" -B "$ROOT/build-ci" -DCMAKE_BUILD_TYPE=Release || exit 1
cmake --build "$ROOT/build-ci" -j "$JOBS" || exit 1
ctest --test-dir "$ROOT/build-ci" --output-on-failure -j "$JOBS" || exit 1

echo
echo "=== CI stage 1: thread-safety analysis (ANALYZE lane) ==="
# check.sh skips with a message when clang++ is absent; the analysis
# then runs only on toolchains that have it, which is the documented
# degradation (annotations are no-ops under GCC).
"$ROOT/scripts/check.sh" analyze || exit 1

if [[ "${1:-}" == "--stage1-only" ]]; then
  echo
  echo "CI stage 1 passed (--stage1-only: skipping depth lanes)."
  exit 0
fi

echo
echo "=== CI stage 2: tidy + sanitizer matrix + simd + benchmark ==="
"$ROOT/scripts/check.sh" tidy asan tsan ubsan simd stress serve chaos \
  benchmark || exit 1

echo
echo "CI: all stages passed."
