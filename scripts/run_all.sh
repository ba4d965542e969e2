#!/usr/bin/env bash
# Reproduces every table, figure, and ablation into an output directory.
#
# Usage: scripts/run_all.sh [outdir]   (default: out/)
#
# Environment:
#   HETSIM_JOBS  worker threads per sweep (default: all cores)
# HETSIM_RESULT_STORE is set to a fresh temporary directory for the bench
# and example runs (any value in the caller's environment is replaced).
set -euo pipefail
OUT="${1:-out}"
mkdir -p "$OUT"
export HETSIM_CSV_DIR="$OUT"
export HETSIM_TIMING_JSON="$OUT/bench_timing.json"
rm -f "$HETSIM_TIMING_JSON"

echo "== building =="
# Prefer Ninja when available; otherwise let cmake pick its default.
if [ ! -f build/CMakeCache.txt ]; then
  if command -v ninja >/dev/null 2>&1; then
    cmake -B build -S . -G Ninja >/dev/null
  else
    cmake -B build -S . >/dev/null
  fi
fi
cmake --build build -j >/dev/null

echo "== tests =="
ctest --test-dir build 2>&1 | tee "$OUT/test_output.txt" | tail -2

echo "== tables, figures, ablations =="
# One fresh result store shared by every bench and example: a point one
# of them simulated is served to the next (fig6 is fig5's comm column),
# and the outputs stay byte-identical. Removed on exit.
HETSIM_RESULT_STORE="$(mktemp -d)"
export HETSIM_RESULT_STORE
trap 'rm -rf "$HETSIM_RESULT_STORE"' EXIT
# The targets bench/CMakeLists.txt and examples/CMakeLists.txt list, so a
# stale binary left in build/ by a deleted target is never run.
BENCHES=$(
  sed -n 's/^hetsim_add_bench(\([A-Za-z0-9_]*\)).*/\1/p' bench/CMakeLists.txt
  sed -n 's/^add_executable(\([A-Za-z0-9_]*\) .*/\1/p' bench/CMakeLists.txt
)
EXAMPLES=$(
  sed -n 's/^hetsim_add_example(\([A-Za-z0-9_]*\)).*/\1/p' examples/CMakeLists.txt
)
for name in $BENCHES; do
  b="build/bench/$name"
  echo "-- $name"
  # stdout is the reproducible artifact; wall-clock telemetry goes to
  # stderr and $HETSIM_TIMING_JSON so the .txt stays machine-independent.
  if [ "$name" = "hetsim_bench" ]; then
    # It times the simulator itself, so none of its points may be served.
    env -u HETSIM_RESULT_STORE "$b" > "$OUT/$name.txt" 2> >(tail -1 >&2)
  else
    "$b" > "$OUT/$name.txt" 2> >(tail -1 >&2)
  fi
done

echo "== examples =="
for name in $EXAMPLES; do
  "build/examples/$name" > "$OUT/example_$name.txt" 2>&1
done

echo "done: results in $OUT/ (sweep timing: $HETSIM_TIMING_JSON)"
