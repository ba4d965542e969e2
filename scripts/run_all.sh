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
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
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
for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  name=$(basename "$e")
  "$e" > "$OUT/example_$name.txt" 2>&1
done

echo "done: results in $OUT/ (sweep timing: $HETSIM_TIMING_JSON)"
