#!/usr/bin/env bash
# The full CI gate, in dependency order:
#   1. tier-1: default build + complete ctest suite (unit label first, so
#      a broken build fails in seconds instead of after the sweeps), then
#      a -DHETSIM_WERROR=ON build of src/ that must compile warning-free
#   2. sanitizers: AddressSanitizer and UBSan builds + complete ctest
#      suite, plus a ThreadSanitizer build running the concurrency suites
#      (thread pool, sweep runner, result store, concurrent rounds)
#   3. static analysis: scripts/lint.sh (clang-tidy against the pinned
#      baseline, plus the hetsim_lint memory-model linter over the shipped
#      design space), then the dead-code gate (3c,
#      scripts/dead_symbols.sh): every out-of-line src/ function is
#      linked into a shipped binary or named on the script's allow-list
#   4. metrics smoke: one run must emit schema-valid, conservation-clean
#      metrics plus a Chrome trace file, and so must the prefetch knob's
#      heaviest background-drain run and the whole fig5 sweep
#   5. golden diff + paper fidelity: regenerate every checked artifact
#      twice (all cores with one shared result store, then HETSIM_JOBS=1
#      with none), require both to be byte-identical to refs/golden and
#      to hold refs/paper (paper-reported values and trends), then prove
#      the sweep engine is byte-deterministic across job counts
#
# Usage: scripts/ci.sh
#
# Environment:
#   HETSIM_JOBS       worker threads per sweep (default: all cores)
#   HETSIM_SKIP_ASAN  set to 1 to skip the ASan leg of gate 2
#   HETSIM_SKIP_UBSAN set to 1 to skip the UBSan leg of gate 2
#   HETSIM_SKIP_TSAN  set to 1 to skip the TSan leg of gate 2
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== gate 1: tier-1 build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" >/dev/null
ctest --test-dir build -L unit --output-on-failure -j "$JOBS" | tail -3
ctest --test-dir build -L sweep --output-on-failure -j "$JOBS" | tail -3

echo "== gate 1a: -Wshadow -Wconversion -Werror build of src/ =="
# The simulator's own libraries must stay warning-free under the strict
# flags; tests, benches and tools (gtest/benchmark macros) are out of scope.
cmake -B build-werror -S . -DHETSIM_WERROR=ON >/dev/null
cmake --build build-werror -j "$JOBS" --target hetsim_core hetsim_analysis \
  hetsim_energy hetsim_check >/dev/null

echo "== gate 1b: block-trace differential + peak RSS + bench smoke =="
# Block traces expanded window by window must be bit-identical to their
# materialized record streams (all six kernels on all five models, the
# interleaved-contention driver's slices, plus core-level segments — the
# fastpath suite), a discrete-GPU round run on two threads must equal the
# serial order (concurrent_round_test), and the microbenchmark harness
# must complete a smoke pass.
ctest --test-dir build -R FastPath --output-on-failure \
  -j "$JOBS" | tail -3
# Traces stream: no production path holds a whole trace, since every
# trace is a generator recipe expanded window by window. Holding them,
# the interleaved matrix multiply and Table III's instruction mix would
# need 400 and 200 MB and the custom-kernel example 51 MB; streamed, all
# sit near 10-15 MB. Plain build only: sanitizer shadow memory inflates
# RSS.
scripts/peak_rss.py 64 build/tools/hetsim run --system IDEAL-HETERO \
  --kernel "matrix mul" sys.interleaved_contention=true
scripts/peak_rss.py 64 build/bench/table3_benchmarks
# A serial sweep holds one machine and streams its traces (~10 MB).
HETSIM_JOBS=1 scripts/peak_rss.py 16 build/bench/ablation_prefetch
# Four workers building and freeing a machine per point (60 points) stay
# near 15 MB; cache arrays from aligned operator new held 47 MB resident.
HETSIM_JOBS=4 scripts/peak_rss.py 32 build/bench/ablation_partition
scripts/peak_rss.py 32 build/examples/custom_kernel
HETSIM_TIMING_JSON=build/bench-smoke-timing.json \
  build/bench/hetsim_bench --smoke >/dev/null

echo "== gate 1c: parallel scaling smoke (jobs=2 vs serial) =="
# A jobs=2 sweep must finish within 1.05x the serial wall — the gate that
# catches contention between workers under parallel sweeps. The bench
# alternates three serial and three jobs=2 sweeps of points that balance
# (every case study on every kernel but matrix multiply) and compares the
# medians.
# It prints a visible SKIP notice (and enforces nothing) on single-core
# hosts, where the comparison would be noise.
HETSIM_TIMING_JSON=build/bench-smoke-timing.json \
  build/bench/hetsim_bench --smoke --phase scaling

if [ "${HETSIM_SKIP_ASAN:-0}" != "1" ]; then
  echo "== gate 2: AddressSanitizer build + tests =="
  cmake -B build-asan -S . -DHETSIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" >/dev/null
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" | tail -3
else
  echo "== gate 2: ASan skipped (HETSIM_SKIP_ASAN=1) =="
fi

if [ "${HETSIM_SKIP_UBSAN:-0}" != "1" ]; then
  echo "== gate 2: UndefinedBehaviorSanitizer build + tests =="
  cmake -B build-ubsan -S . -DHETSIM_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS" >/dev/null
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" | tail -3
else
  echo "== gate 2: UBSan skipped (HETSIM_SKIP_UBSAN=1) =="
fi

if [ "${HETSIM_SKIP_TSAN:-0}" != "1" ]; then
  echo "== gate 2: ThreadSanitizer build + concurrency tests =="
  # Only the concurrency-heavy suites: everything else is single-threaded
  # and already covered by ASan/UBSan, and a full TSan ctest run would
  # triple the gate's wall clock for no extra coverage. SweepRunner
  # includes the jobs=4 contention-ablation regression
  # (ContentionAblationParallelMatchesSerial); ConcurrentRound runs every
  # discrete-GPU round's two halves on two threads over one memory system.
  cmake -B build-tsan -S . -DHETSIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target threadpool_test sweep_test \
    result_store_test concurrent_round_test >/dev/null
  ctest --test-dir build-tsan \
    -R 'ThreadPool|SweepRunner|ResultStore|Determinism|ConcurrentRound' \
    --output-on-failure -j "$JOBS" | tail -3
else
  echo "== gate 2: TSan skipped (HETSIM_SKIP_TSAN=1) =="
fi

echo "== gate 3: static analysis =="
scripts/lint.sh build

echo "== gate 3c: src/ functions no shipped binary links =="
# Its own -fno-inline, --gc-sections build of the tools, benches and
# examples (build-deadsym/); lists every src/ function none of them keeps.
scripts/dead_symbols.sh

echo "== gate 4: metrics smoke =="
# One sweep point must emit a schema-valid metrics document that passes
# the DRAM traffic-conservation audit, plus a Chrome trace file; then the
# shipped knob with the most background drains (matrix multiply under
# configs/prefetch.cfg: 115,023 drains on Fusion, traced as one summary
# span) must conserve DRAM traffic and keep its compute spans in the
# trace, and the whole Figure 5 sweep (LRB's ownership steps,
# IDEAL-HETERO's coherence path) must conserve DRAM traffic on every
# point.
SMOKE_DIR="build/obs-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
HETSIM_TRACE_EVENTS="$SMOKE_DIR" build/tools/hetsim run --system Fusion \
  --kernel reduction --metrics "$SMOKE_DIR/metrics.json" >/dev/null
build/tools/hetsim_stats validate "$SMOKE_DIR/metrics.json"
build/tools/hetsim_stats audit "$SMOKE_DIR/metrics.json"
[ -s "$SMOKE_DIR/Fusion_reduction.trace.json" ] || {
  echo "ci: missing trace-event file" >&2
  exit 1
}
HETSIM_TRACE_EVENTS="$SMOKE_DIR" build/tools/hetsim run --system Fusion \
  --kernel "matrix mul" --config configs/prefetch.cfg \
  --metrics "$SMOKE_DIR/prefetch.json" >/dev/null
build/tools/hetsim_stats validate "$SMOKE_DIR/prefetch.json"
build/tools/hetsim_stats audit "$SMOKE_DIR/prefetch.json"
grep -q '"name":"parallel_compute"' \
  "$SMOKE_DIR/Fusion_matrix_mul.trace.json" || {
  echo "ci: prefetch matrix-multiply trace has no parallel_compute span" >&2
  exit 1
}
HETSIM_TIMING_JSON=build/bench-smoke-timing.json \
  HETSIM_METRICS_JSON="$SMOKE_DIR/fig5.json" \
  build/bench/fig5_case_studies >/dev/null
build/tools/hetsim_stats validate "$SMOKE_DIR/fig5.json"
build/tools/hetsim_stats audit "$SMOKE_DIR/fig5.json"

echo "== gate 5: golden diff + paper fidelity + determinism =="
# Regenerate every manifest artifact into a scratch directory so the gate
# checks the tree as built, not whatever is sitting in out/. microbench is
# wall-clock noise and is deliberately not under regression check. The
# artifacts must be byte-identical to refs/golden both ways they are made:
# at the caller's job count with every bench and example sharing one
# fresh result store (fig6 is then served from fig5's points), and
# serially with no store.
# The programs are the manifest's .txt entries: example_<x>.txt is
# examples/<x> (stdout and stderr), any other <stem>.txt is bench/<stem>
# (stdout); a stale binary in build/ is never run.
regen_and_diff() { # <dir> <report>
  rm -rf "$1"
  mkdir -p "$1"
  for stem in $(sed -n 's/^\([A-Za-z0-9_]*\)[.]txt$/\1/p' refs/MANIFEST); do
    case "$stem" in
    example_*)
      HETSIM_CSV_DIR="$1" "build/examples/${stem#example_}" \
        > "$1/$stem.txt" 2>&1 ;;
    *)
      HETSIM_CSV_DIR="$1" "build/bench/$stem" > "$1/$stem.txt" 2>/dev/null ;;
    esac
  done
  build/tools/hetsim_check diff --out "$1" --report "$2"
}
unset HETSIM_CSV_DIR HETSIM_RESULT_STORE
STORE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_DIR"' EXIT
CHECK_OUT="build/check-out"
HETSIM_RESULT_STORE="$STORE_DIR" \
  regen_and_diff "$CHECK_OUT" build/check-report.txt
HETSIM_JOBS=1 regen_and_diff build/check-out-serial \
  build/check-report-serial.txt
build/tools/hetsim_check fidelity --out "$CHECK_OUT"
build/tools/hetsim_check determinism --jobs "${HETSIM_JOBS:-8}"

echo "ci: all gates passed"
