#!/bin/sh
# Benchmarks the evaluation engine and writes BENCH_eval.json.
#
# Three sections, all against `experiments -quick all`:
#   compute   — wall-clock serial (-j 1) vs parallel (-j N) with the
#               persistent cache disabled, plus a -j 1 run with -trace and
#               -metrics whose stdout must equal the serial one. Its time
#               is not recorded: one plain/traced pair is noise at this
#               size (ten alternating pairs spread 25-35 s on a 2-CPU
#               host), so telemetry cost needs paired runs.
#               The parallel-speedup claim is only emitted when the
#               machine actually has more than one CPU; on a 1-CPU
#               container the honest number is "extra workers cannot
#               help" and the field is left out.
#   persist   — cold run into a fresh cache directory, then a warm
#               rerun from it; both must be byte-identical to the
#               no-cache stdout.
#   debugify  — the verify-each matrix vs the same matrix built
#               plainly (-dbg-verify=false).
#
# Usage: scripts/bench_eval.sh [jobs]   (default parallel width: 4)
set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-4}"
OUT=BENCH_eval.json
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/experiments" ./cmd/experiments

# Record the machine as it is: the number of CPUs the runtime sees is
# what bounds any parallel speedup, and pretending otherwise makes the
# numbers unreproducible.
NUM_CPUS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
GOMAXPROCS="${GOMAXPROCS:-$NUM_CPUS}"
export GOMAXPROCS

time_run() {
    # time_run <stdout-file> <flags...>: seconds, with subsecond
    # precision where the shell provides it.
    out="$1"; shift
    start=$(date +%s.%N 2>/dev/null || date +%s)
    "$TMP/experiments" -quick "$@" all >"$out"
    end=$(date +%s.%N 2>/dev/null || date +%s)
    awk -v a="$start" -v b="$end" 'BEGIN { printf "%.1f", b - a }'
}

echo "serial run (-j 1, cache off)..." >&2
SERIAL=$(time_run "$TMP/serial.txt" -j 1 -cachedir off)

PARALLEL_FIELDS=""
if [ "$NUM_CPUS" -gt 1 ]; then
    echo "parallel run (-j $JOBS, cache off)..." >&2
    PARALLEL=$(time_run "$TMP/parallel.txt" -j "$JOBS" -cachedir off)
    SPEEDUP=$(awk -v s="$SERIAL" -v p="$PARALLEL" 'BEGIN { printf "%.2f", s / p }')
    PARALLEL_FIELDS=$(printf '\n  "parallel_seconds": %s,\n  "speedup_parallel_vs_serial": %s,' \
        "$PARALLEL" "$SPEEDUP")
else
    echo "single-CPU machine: skipping the parallel-speedup claim" >&2
    # Still verify parallel stdout identity, which is a correctness
    # property, not a performance one.
    "$TMP/experiments" -quick -j "$JOBS" -cachedir off all >"$TMP/parallel.txt"
fi

echo "telemetry run (-j 1 -trace, cache off)..." >&2
"$TMP/experiments" -quick -j 1 -cachedir off \
    -trace "$TMP/trace.json" -metrics "$TMP/metrics.json" all >"$TMP/telemetry.txt"

echo "cold run (fresh cache dir)..." >&2
COLD=$(time_run "$TMP/cold.txt" -j 1 -cachedir "$TMP/cache")
echo "warm run (same cache dir)..." >&2
WARM=$(time_run "$TMP/warm.txt" -j 1 -cachedir "$TMP/cache")
WARM_SPEEDUP=$(awk -v c="$COLD" -v w="$WARM" \
    'BEGIN { if (w == 0) w = 0.1; printf "%.1f", c / w }')

if cmp -s "$TMP/serial.txt" "$TMP/parallel.txt" &&
   cmp -s "$TMP/serial.txt" "$TMP/telemetry.txt" &&
   cmp -s "$TMP/serial.txt" "$TMP/cold.txt" &&
   cmp -s "$TMP/serial.txt" "$TMP/warm.txt"; then
    IDENTICAL=true
else
    IDENTICAL=false
    for f in parallel telemetry cold warm; do
        diff "$TMP/serial.txt" "$TMP/$f.txt" | head -10 >&2 || true
    done
fi

# Verify-each overhead: the debugify matrix with the per-pass analyzer
# on, against the same matrix built plainly (-dbg-verify=false).
echo "debugify run (verify-each on)..." >&2
DSTART=$(date +%s.%N 2>/dev/null || date +%s)
"$TMP/experiments" -j "$JOBS" -cachedir off debugify >"$TMP/debugify.txt"
DEND=$(date +%s.%N 2>/dev/null || date +%s)
VERIFY=$(awk -v a="$DSTART" -v b="$DEND" 'BEGIN { printf "%.1f", b - a }')
echo "debugify baseline (plain builds)..." >&2
DSTART=$(date +%s.%N 2>/dev/null || date +%s)
"$TMP/experiments" -j "$JOBS" -cachedir off -dbg-verify=false debugify >/dev/null
DEND=$(date +%s.%N 2>/dev/null || date +%s)
PLAIN=$(awk -v a="$DSTART" -v b="$DEND" 'BEGIN { printf "%.1f", b - a }')
VERIFY_OVERHEAD=$(awk -v p="$PLAIN" -v v="$VERIFY" \
    'BEGIN { if (p == 0) p = 0.1; printf "%.1f", 100 * (v - p) / p }')
grep -q '^PASS$' "$TMP/debugify.txt"

cat >"$OUT" <<EOF
{
  "benchmark": "cmd/experiments -quick all",
  "jobs": $JOBS,
  "num_cpus": $NUM_CPUS,
  "gomaxprocs": ${GOMAXPROCS},
  "serial_seconds": $SERIAL,${PARALLEL_FIELDS}
  "cold_cache_seconds": $COLD,
  "warm_cache_seconds": $WARM,
  "warm_speedup": $WARM_SPEEDUP,
  "debugify_verify_seconds": $VERIFY,
  "debugify_plain_seconds": $PLAIN,
  "verify_each_overhead_pct": $VERIFY_OVERHEAD,
  "stdout_byte_identical": $IDENTICAL
}
EOF
cat "$OUT"
