#!/usr/bin/env bash
# Times the Figure 5/6 case-study sweep serially and in parallel, several
# runs each, and records the results as BENCH_sweep.json.
#
# Usage: scripts/bench_timing.sh [jobs] [runs] [outfile]
#   jobs     parallel worker count for the wide run (default: nproc)
#   runs     runs per configuration (default: 5)
#   outfile  result path (default: BENCH_sweep.json)
#
# Two configurations are measured, their runs interleaved (serial,
# parallel, serial, ...) so slow spells of a shared host hit both alike:
#   serial    jobs=1
#   parallel  jobs=N
#
# Each row records the median, min and max wall time and peak RSS over
# its runs; points_per_s, the phase split and the speedup (relative to
# serial) come from the medians. A single run varies by tens of percent
# on a shared host, so nothing here reads one run alone.
#
# When the outfile already holds a previous record, each variant's new
# median points_per_s is compared against it: any regression beyond 20%
# fails the run (the candidate goes to <outfile>.rej, the old record
# stays).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
RUNS="${2:-5}"
OUTFILE="${3:-BENCH_sweep.json}"
BENCH=build/bench/fig5_case_studies

if ! [ "$RUNS" -ge 1 ] 2>/dev/null; then
  echo "error: runs has value '$RUNS', which is not a positive integer" >&2
  exit 2
fi

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

# Runs one configuration once; appends "wall_s points trace_gen_s
# simulate_s peak_rss_mb" to $TMPDIR_TIMING/<name>.runs.
run_once() { # name jobs
  local log="$TMPDIR_TIMING/$1.json" rss
  rm -f "$log"
  # peak_rss.py with no limit just reports the child's peak RSS.
  rss=$(HETSIM_JOBS="$2" HETSIM_TIMING_JSON="$log" \
        scripts/peak_rss.py inf "$BENCH" 2>/dev/null \
        | sed -n 's/^peak_rss: \([0-9.]*\) MB.*/\1/p')
  # The timing line has a fixed key order; pull fields with sed.
  local fields
  fields=$(sed -n '1s/.*"points":\([0-9]*\),"jobs":[0-9]*,"wall_s":\([0-9.]*\),.*"trace_gen_s":\([0-9.]*\),"simulate_s":\([0-9.]*\).*/\2 \1 \3 \4/p' "$log")
  echo "$fields $rss" >> "$TMPDIR_TIMING/$1.runs"
}

# Median, min and max of column \p col of a runs file, printed with
# \p digits decimals: "median min max".
stats() { # name col digits
  cut -d' ' -f"$2" "$TMPDIR_TIMING/$1.runs" | sort -g | awk -v d="$3" '
    { v[NR] = $1 }
    END {
      m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
      f = "%." d "f %." d "f %." d "f\n"
      printf f, m, v[1], v[NR]
    }'
}

for ((I = 1; I <= RUNS; ++I)); do
  echo "== run $I/$RUNS: serial (jobs=1), parallel (jobs=$JOBS) =="
  run_once serial 1
  run_once parallel "$JOBS"
done

# Prints one JSON row and sets PPS_<name> (median points/s) and
# WALL_<name> (median wall seconds).
row() { # name jobs
  local wall wmin wmax rss rmin rmax gen sim points pps
  read -r wall wmin wmax <<<"$(stats "$1" 1 6)"
  read -r gen _ _ <<<"$(stats "$1" 3 6)"
  read -r sim _ _ <<<"$(stats "$1" 4 6)"
  read -r rss rmin rmax <<<"$(stats "$1" 5 1)"
  points=$(head -n1 "$TMPDIR_TIMING/$1.runs" | cut -d' ' -f2)
  pps=$(awk "BEGIN{printf \"%.3f\", $points / $wall}")
  printf -v "PPS_$1" '%s' "$pps"
  printf -v "WALL_$1" '%s' "$wall"
  echo "   $1: median ${wall}s (min ${wmin}s, max ${wmax}s) for ${points}" \
       "points, ${pps} points/s; peak RSS median ${rss} MB (max ${rmax} MB)" >&2
  ROW="{\"variant\": \"$1\", \"jobs\": $2, \"points\": $points, \"runs\": $RUNS, \"wall_s\": $wall, \"wall_s_min\": $wmin, \"wall_s_max\": $wmax, \"points_per_s\": $pps, \"speedup\": SPEEDUP, \"trace_gen_s\": $gen, \"simulate_s\": $sim, \"peak_rss_mb\": $rss, \"peak_rss_mb_min\": $rmin, \"peak_rss_mb_max\": $rmax}"
}

row serial 1
SER_ROW=${ROW/SPEEDUP/1.00}
row parallel "$JOBS"
PAR_SPEEDUP=$(awk "BEGIN{printf \"%.2f\", $WALL_serial / $WALL_parallel}")
PAR_ROW=${ROW/SPEEDUP/$PAR_SPEEDUP}

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
    $SER_ROW,
    $PAR_ROW
  ]
}
EOF

REGRESSED=0
if [ -f "$OUTFILE" ]; then
  for spec in "serial $PPS_serial" "parallel $PPS_parallel"; do
    read -r variant new_pps <<<"$spec"
    prev_pps="$(old_pps "$variant")"
    [ -n "$prev_pps" ] || continue
    if awk "BEGIN{exit !($new_pps < 0.8 * $prev_pps)}"; then
      echo "regression: $variant median ${new_pps} points/s is >20% below" \
           "the recorded ${prev_pps} points/s" >&2
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
echo "== wrote $OUTFILE (parallel speedup ${PAR_SPEEDUP}x over serial," \
     "medians of $RUNS runs) =="
