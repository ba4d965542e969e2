#!/usr/bin/env bash
# Times the Figure 5/6 case-study sweep serially and in parallel and
# records the results as BENCH_sweep.json.
#
# Usage: scripts/bench_timing.sh [jobs] [outfile]
#   jobs     parallel worker count for the wide run (default: nproc)
#   outfile  result path (default: BENCH_sweep.json)
#
# Two configurations are measured:
#   serial    jobs=1
#   parallel  jobs=N
#
# Speedups are relative to serial. On multi-core hosts the parallel run
# should be >=2x at jobs>=4.
#
# When the outfile already holds a previous record, each variant's new
# points_per_s is compared against it: any regression beyond 20% fails
# the run (the candidate goes to <outfile>.rej, the old record stays).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
OUTFILE="${2:-BENCH_sweep.json}"
BENCH=build/bench/fig5_case_studies

# Physical core count of the host, independent of the current CPU
# affinity mask: `nproc` reads the mask, so a taskset-restricted or
# containerized run would record 1 even on a big machine.
HOST_CORES=$(nproc --all 2>/dev/null \
             || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
if [ "$JOBS" -gt "$HOST_CORES" ] 2>/dev/null; then
  echo "warning: jobs=$JOBS exceeds host_cores=$HOST_CORES;" \
       "parallel speedup will be limited to what the host can run" >&2
fi

if [ ! -x "$BENCH" ]; then
  echo "error: $BENCH not built; run cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

TMPDIR_TIMING=$(mktemp -d)
trap 'rm -rf "$TMPDIR_TIMING"' EXIT

# Runs one configuration; prints "wall_s points points_per_s trace_gen_s
# simulate_s".
run_once() { # name jobs
  local log="$TMPDIR_TIMING/$1.json"
  HETSIM_JOBS="$2" HETSIM_TIMING_JSON="$log" "$BENCH" >/dev/null 2>&1
  # The timing line has a fixed key order; pull fields with sed.
  sed -n '1s/.*"points":\([0-9]*\),"jobs":[0-9]*,"wall_s":\([0-9.]*\),"points_per_s":\([0-9.]*\).*"trace_gen_s":\([0-9.]*\),"simulate_s":\([0-9.]*\).*/\2 \1 \3 \4 \5/p' "$log"
}

echo "== serial (jobs=1) =="
read -r SER_WALL SER_POINTS SER_PPS SER_GEN SER_SIM <<<"$(run_once serial 1)"
echo "   ${SER_WALL}s for ${SER_POINTS} points (${SER_PPS} points/s," \
     "gen ${SER_GEN}s / sim ${SER_SIM}s)"

echo "== parallel (jobs=$JOBS) =="
read -r PAR_WALL PAR_POINTS PAR_PPS PAR_GEN PAR_SIM \
  <<<"$(run_once parallel "$JOBS")"
echo "   ${PAR_WALL}s for ${PAR_POINTS} points (${PAR_PPS} points/s," \
     "gen ${PAR_GEN}s / sim ${PAR_SIM}s)"

PAR_SPEEDUP=$(awk "BEGIN{printf \"%.2f\", $SER_WALL/$PAR_WALL}")

# Looks up a variant's points_per_s in a previous record.
old_pps() { # variant
  sed -n "s/.*\"variant\": \"$1\".*\"points_per_s\": \([0-9.]*\).*/\1/p" \
      "$OUTFILE"
}

CANDIDATE="$TMPDIR_TIMING/candidate.json"
cat > "$CANDIDATE" <<EOF
{
  "bench": "fig5_case_studies",
  "host_cores": $HOST_CORES,
  "runs": [
    {"variant": "serial", "jobs": 1, "points": $SER_POINTS, "wall_s": $SER_WALL, "points_per_s": $SER_PPS, "speedup": 1.00, "trace_gen_s": $SER_GEN, "simulate_s": $SER_SIM},
    {"variant": "parallel", "jobs": $JOBS, "points": $PAR_POINTS, "wall_s": $PAR_WALL, "points_per_s": $PAR_PPS, "speedup": $PAR_SPEEDUP, "trace_gen_s": $PAR_GEN, "simulate_s": $PAR_SIM}
  ]
}
EOF

REGRESSED=0
if [ -f "$OUTFILE" ]; then
  for spec in "serial $SER_PPS" "parallel $PAR_PPS"; do
    read -r variant new_pps <<<"$spec"
    prev_pps="$(old_pps "$variant")"
    [ -n "$prev_pps" ] || continue
    if awk "BEGIN{exit !($new_pps < 0.8 * $prev_pps)}"; then
      echo "regression: $variant ${new_pps} points/s is >20% below the" \
           "recorded ${prev_pps} points/s" >&2
      REGRESSED=1
    fi
  done
fi

if [ "$REGRESSED" = "1" ]; then
  cp "$CANDIDATE" "$OUTFILE.rej"
  echo "== kept $OUTFILE; rejected candidate written to $OUTFILE.rej ==" >&2
  exit 1
fi

cp "$CANDIDATE" "$OUTFILE"
echo "== wrote $OUTFILE (parallel speedup ${PAR_SPEEDUP}x over serial) =="
