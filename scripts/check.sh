#!/usr/bin/env bash
# Full verification matrix: plain build, Clang thread-safety analysis
# (COSTPERF_ANALYZE), and the three sanitizer configurations — each
# followed by the full ctest suite. Exits non-zero if any configured lane
# fails; lanes whose toolchain is missing (no clang++) are skipped with an
# explicit message rather than silently passing.
#
# Usage: scripts/check.sh [--list] [lane...]
#   lanes: plain analyze asan tsan ubsan simd stress serve chaos tidy
#          benchmark (default: all but bench)
#   Every ctest lane includes the three-tier suite — css_tier_test's
#   demotion/promotion/reheat policies, compressor_robustness_test's
#   adversarial decompression inputs, and the crash-recovery torture
#   with CSS demotions active — so the sanitizer lanes (asan/tsan/
#   ubsan) exercise the compressed tier's concurrency and memory
#   safety, not just the plain build.
#   `simd` rebuilds with -DCOSTPERF_NO_SIMD=ON (scalar key-slice search,
#   no vector kernels, no cpu dispatch) and runs the index + batch-probe
#   tests — proof the scalar fallback is a complete, correct
#   implementation and not just a compile-time stub.
#   `tidy` runs clang-tidy (scripts/run_clang_tidy.sh) with the base
#   .clang-tidy check set plus the costperf-* plugin checks when the
#   plugin was built; it skips with a message when LLVM is missing.
#   `stress` runs the SS-heavy steady-state bench (bench/ss_stress) and
#   fails unless background mode finished with foreground_maintenance_ops
#   == 0 — the off-the-op-path maintenance contract. It asserts counters,
#   not wall-clock numbers, so it is safe on loaded hosts.
#   `serve` rebuilds the server + loadgen under TSan and runs the
#   loopback serving smoke (scripts/serve_smoke.sh) with the throughput
#   gate disabled: it asserts per-tenant report sanity, wire batches
#   reaching the batched store paths, and a clean SIGTERM quiesce —
#   TSan-clean, no wall-clock numbers.
#   `chaos` runs the network fault-injection suite (ctest -L chaos) under
#   TSan with a reduced COSTPERF_CHAOS_ITERS: seeded torn frames, short
#   reads/writes, injected resets, slowloris stalls, and mid-stream
#   disconnects against the live server, asserting no wedges, no fd
#   leaks, and clean recovery after every plan.
#   `benchmark` runs `benchmark/run.sh --quick`: it builds ../src in
#   Release as the repo benchmark's own subproject (build-benchmark/),
#   runs the result checker's self-test and every workload for 1 s, and
#   fails on a build error or any wrong result. The benchmark lives
#   outside the root build, so this is the lane that catches a src/ API
#   change that breaks it.
#   The opt-in `bench` lane (never run by default: wall-clock sensitive)
#   runs scripts/bench_smoke.sh and leaves its BENCH_smoke.json at the
#   repo root.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
if [[ "${1:-}" == "--list" ]]; then
  cat <<'EOF'
plain    Release build + full ctest + 200-iteration crash-recovery torture
analyze  Clang -Werror=thread-safety build (locks + epoch capabilities)
asan     Debug + AddressSanitizer build + ctest + reduced torture
tsan     Debug + ThreadSanitizer build + ctest + reduced torture
ubsan    Debug + UBSanitizer (no-recover) build + ctest + reduced torture
simd     Release -DCOSTPERF_NO_SIMD=ON build; index/batch tests on the scalar path
stress   SS-heavy steady-state bench; asserts maintenance stays off op path
serve    TSan server+loadgen loopback smoke with clean-shutdown assertions
chaos    TSan network fault-injection suite (seeded plans, sheds, watchdog)
tidy     clang-tidy over all first-party sources (+ costperf-* plugin)
benchmark repo benchmark quick run: Release build, checker self-test, 1 s per workload
bench    (opt-in) wall-clock bench smoke; writes BENCH_smoke.json
EOF
  exit 0
fi
LANES=("$@")
[[ ${#LANES[@]} -eq 0 ]] && LANES=(plain analyze asan tsan ubsan simd stress serve chaos tidy benchmark)

failures=()
skips=()

have_clangxx() {
  [[ -n "${CLANGXX:-}" ]] && command -v "$CLANGXX" >/dev/null 2>&1 && return 0
  for cand in clang++ clang++-18 clang++-17 clang++-16; do
    if command -v "$cand" >/dev/null 2>&1; then
      CLANGXX="$cand"
      return 0
    fi
  done
  return 1
}

run_lane() {
  local lane="$1"
  shift
  local dir="$ROOT/build-$lane"
  echo
  echo "=== lane: $lane ==="
  if ! cmake -S "$ROOT" -B "$dir" "$@" >/dev/null; then
    failures+=("$lane (configure)")
    return
  fi
  if ! cmake --build "$dir" -j "$JOBS" >/dev/null; then
    failures+=("$lane (build)")
    return
  fi
  # The analyze lane is a compile-time check only; its test binaries are
  # identical to plain Clang ones, so building them is the verification.
  if [[ "$lane" == "analyze" ]]; then
    echo "lane $lane: build clean under -Werror=thread-safety"
    return
  fi
  if ! ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
       -LE 'torture|chaos' > "$dir/ctest.log" 2>&1; then
    tail -40 "$dir/ctest.log"
    failures+=("$lane (ctest)")
    return
  fi
  grep -E "tests (passed|failed)" "$dir/ctest.log" | tail -1
  # Crash-recovery torture loop: full 200 crash points on the plain lane,
  # a reduced loop under the (much slower) sanitizers. Every iteration
  # derives from the printed base seed, so a short loop still reproduces.
  local torture_iters=200
  [[ "$lane" != "plain" ]] && torture_iters=25
  if ! COSTPERF_TORTURE_ITERS="$torture_iters" \
       ctest --test-dir "$dir" --output-on-failure -L torture \
       > "$dir/ctest-torture.log" 2>&1; then
    tail -40 "$dir/ctest-torture.log"
    failures+=("$lane (torture)")
    return
  fi
  echo "torture loop: $torture_iters crash points passed"
  # Network chaos loop: full 200 fault plans on the plain lane, reduced
  # under sanitizers. The dedicated `chaos` lane runs it under TSan with
  # a fresh build; here it piggybacks on whatever this lane built.
  local chaos_iters=200
  [[ "$lane" != "plain" ]] && chaos_iters=40
  if ! COSTPERF_CHAOS_ITERS="$chaos_iters" \
       ctest --test-dir "$dir" --output-on-failure -L chaos \
       > "$dir/ctest-chaos.log" 2>&1; then
    tail -40 "$dir/ctest-chaos.log"
    failures+=("$lane (chaos)")
    return
  fi
  echo "chaos loop: $chaos_iters fault plans passed"
}

for lane in "${LANES[@]}"; do
  case "$lane" in
    plain)
      run_lane plain -DCMAKE_BUILD_TYPE=Release
      ;;
    analyze)
      if have_clangxx; then
        run_lane analyze -DCMAKE_BUILD_TYPE=Release \
                 -DCMAKE_CXX_COMPILER="$CLANGXX" -DCOSTPERF_ANALYZE=ON
      else
        echo "=== lane: analyze — SKIPPED (no clang++ on PATH; set CLANGXX)"
        skips+=(analyze)
      fi
      ;;
    asan)
      run_lane asan -DCMAKE_BUILD_TYPE=Debug -DCOSTPERF_SANITIZE=address
      ;;
    tsan)
      run_lane tsan -DCMAKE_BUILD_TYPE=Debug -DCOSTPERF_SANITIZE=thread
      ;;
    ubsan)
      run_lane ubsan -DCMAKE_BUILD_TYPE=Debug -DCOSTPERF_SANITIZE=undefined
      ;;
    simd)
      # Scalar-fallback lane: the SIMD wrapper compiled with the vector
      # kernels and runtime dispatch forced off. Runs the tests that
      # exercise key-slice search and the batched probes; the simd_test
      # backend assertion pins BackendName() == "scalar" in this build.
      echo
      echo "=== lane: simd ==="
      dir="$ROOT/build-simd"
      if cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
           -DCOSTPERF_NO_SIMD=ON >/dev/null &&
         cmake --build "$dir" --target simd_test batch_probe_test \
           bwtree_test masstree_test sharded_store_test -j "$JOBS" \
           >/dev/null &&
         ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
           -R 'Simd|NodeSearch|Batch|BwTree|MassTree|ShardedStore'
      then
        echo "lane simd: scalar fallback passes the index/batch suite"
      else
        failures+=("simd")
      fi
      ;;
    stress)
      echo
      echo "=== lane: stress ==="
      dir="$ROOT/build-stress"
      if cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=Release >/dev/null &&
         cmake --build "$dir" --target ss_stress -j "$JOBS" >/dev/null &&
         "$dir/bench/ss_stress"; then
        echo "lane stress: background maintenance contract holds"
      else
        failures+=("stress")
      fi
      ;;
    serve)
      echo
      echo "=== lane: serve ==="
      if COSTPERF_SERVE_BUILD_DIR="$ROOT/build-serve" \
         COSTPERF_SERVE_BUILD_TYPE=Debug \
         COSTPERF_SERVE_SANITIZE=thread \
         COSTPERF_SERVE_MIN_KPS=0 \
         COSTPERF_SERVE_DURATION=2 \
         "$ROOT/scripts/serve_smoke.sh" "$ROOT/build-serve/serve_smoke.json"
      then
        echo "lane serve: loopback smoke TSan-clean, clean shutdown"
      else
        failures+=("serve")
      fi
      ;;
    chaos)
      echo
      echo "=== lane: chaos ==="
      dir="$ROOT/build-chaos"
      if cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=Debug \
           -DCOSTPERF_SANITIZE=thread >/dev/null &&
         cmake --build "$dir" --target server_chaos_test -j "$JOBS" \
           >/dev/null &&
         COSTPERF_CHAOS_ITERS="${COSTPERF_CHAOS_ITERS:-60}" \
           ctest --test-dir "$dir" --output-on-failure -L chaos
      then
        echo "lane chaos: fault plans TSan-clean, no wedges, no fd leaks"
      else
        failures+=("chaos")
      fi
      ;;
    tidy)
      echo
      echo "=== lane: tidy ==="
      if command -v clang-tidy >/dev/null 2>&1 || [[ -n "${CLANG_TIDY:-}" ]]
      then
        if "$ROOT/scripts/run_clang_tidy.sh"; then
          echo "lane tidy: clean"
        else
          failures+=("tidy")
        fi
      else
        echo "lane tidy — SKIPPED (no clang-tidy on PATH; set CLANG_TIDY)"
        skips+=(tidy)
      fi
      ;;
    benchmark)
      echo
      echo "=== lane: benchmark ==="
      if "$ROOT/benchmark/run.sh" --quick; then
        echo "lane benchmark: builds against src/, every workload correct"
      else
        failures+=("benchmark")
      fi
      ;;
    bench)
      echo
      echo "=== lane: bench ==="
      if ! "$ROOT/scripts/bench_smoke.sh"; then
        failures+=("bench (smoke)")
      fi
      ;;
    *)
      echo "unknown lane '$lane' (want: plain analyze asan tsan ubsan simd stress serve chaos tidy benchmark bench)" >&2
      exit 2
      ;;
  esac
done

echo
if [[ ${#skips[@]} -gt 0 ]]; then
  echo "skipped lanes: ${skips[*]}"
fi
if [[ ${#failures[@]} -gt 0 ]]; then
  echo "FAILED lanes: ${failures[*]}"
  exit 1
fi
echo "all configured lanes passed"
