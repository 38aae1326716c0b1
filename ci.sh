#!/bin/sh
# CI gate: gofmt, vet, build, full test suite, then the race detector on every
# package that participates in the parallel evaluation engine, and
# finally a bounded differential-testing smoke that must be byte-stable
# across worker counts.
set -eux

test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...

# Repo-local lint: raw pipeline.Config literals and map-order-dependent
# output are build failures (see internal/lint).
go run ./cmd/lint -root .
go test -race -count=1 \
    ./internal/telemetry/ \
    ./internal/suite/ \
    ./internal/workerpool/ \
    ./internal/evalcache/ \
    ./internal/resilience/ \
    ./internal/tuner/ \
    ./internal/serve/ \
    ./internal/experiments/ \
    ./internal/specsuite/ \
    ./internal/testsuite/ \
    ./internal/difftest/

# Keep the binary smokes hermetic: the persistent evalcache defaults to
# the user cache dir, which CI must neither read nor pollute.
DEBUGTUNER_CACHE_DIR=/tmp/ci-default-cache
export DEBUGTUNER_CACHE_DIR
rm -rf /tmp/ci-default-cache

# Differential smoke: a small fixed seed set over the plain level matrix
# must report zero findings, and stdout must not depend on parallelism.
go build -o /tmp/ci-experiments ./cmd/experiments
/tmp/ci-experiments -j 1 -seeds 5 -configs levels difftest > /tmp/ci-difftest-j1.txt
/tmp/ci-experiments -j 4 -seeds 5 -configs levels difftest > /tmp/ci-difftest-j4.txt
cmp /tmp/ci-difftest-j1.txt /tmp/ci-difftest-j4.txt
grep -q '^PASS$' /tmp/ci-difftest-j1.txt
rm -f /tmp/ci-experiments /tmp/ci-difftest-j1.txt /tmp/ci-difftest-j4.txt

# Static debug-info verification smoke: one subject under both profiles
# must be debugify-clean, byte-stable across worker counts; and the
# verify-each driver must pass on a known-good fixture.
go build -o /tmp/ci-experiments ./cmd/experiments
/tmp/ci-experiments -j 1 -dbg-subjects libpng debugify > /tmp/ci-debugify-j1.txt
/tmp/ci-experiments -j 4 -dbg-subjects libpng debugify > /tmp/ci-debugify-j4.txt
cmp /tmp/ci-debugify-j1.txt /tmp/ci-debugify-j4.txt
grep -q '^PASS$' /tmp/ci-debugify-j1.txt
rm -f /tmp/ci-experiments /tmp/ci-debugify-j1.txt /tmp/ci-debugify-j4.txt
go run ./cmd/minicc -O 2 -verify-each internal/difftest/testdata/fold_minint_div.mc \
    | grep -q '^PASS$'
go run ./cmd/minicc -profile clang -O 3 -verify-each internal/difftest/testdata/fold_shift_mask.mc \
    | grep -q '^PASS$'

# Chaos smoke: under deterministic fault injection the same bounded
# matrix must (a) complete with quarantined cells and the distinct
# "completed with gaps" exit code 3, (b) produce byte-identical output
# at any worker count, and (c) after checkpointing the faulted run to a
# journal, resume WITHOUT chaos, rerun only the incomplete and
# quarantined cells, and finish clean with exit 0.
go build -o /tmp/ci-experiments ./cmd/experiments
rc=0; /tmp/ci-experiments -j 1 -chaos rate=0.5,seed=21 -seeds 3 -suite=false -configs levels \
    difftest > /tmp/ci-chaos-j1.txt || rc=$?
test "$rc" -eq 3
rc=0; /tmp/ci-experiments -j 4 -chaos rate=0.5,seed=21 -seeds 3 -suite=false -configs levels \
    difftest > /tmp/ci-chaos-j4.txt || rc=$?
test "$rc" -eq 3
cmp /tmp/ci-chaos-j1.txt /tmp/ci-chaos-j4.txt
grep -q '^QUARANTINED(' /tmp/ci-chaos-j1.txt
rc=0; /tmp/ci-experiments -j 4 -chaos rate=0.5,seed=21 -seeds 3 -suite=false -configs levels \
    -journal /tmp/ci-chaos.jsonl difftest > /dev/null || rc=$?
test "$rc" -eq 3
/tmp/ci-experiments -j 4 -resume /tmp/ci-chaos.jsonl -seeds 3 -suite=false -configs levels \
    difftest > /tmp/ci-resume.txt
grep -q '^PASS$' /tmp/ci-resume.txt
# The suite tables under fault injection: a quarantined cell leaves its
# subject out of every average of the table (named), so each table
# completes with gaps, exit 3, and the same bytes at any worker count.
rc=0; /tmp/ci-experiments -j 1 -quick -cachedir off -chaos rate=0.2,seed=3 \
    table2 table4 fig2 table9 > /tmp/ci-chaos-tables-j1.txt || rc=$?
test "$rc" -eq 3
rc=0; /tmp/ci-experiments -j 2 -quick -cachedir off -chaos rate=0.2,seed=3 \
    table2 table4 fig2 table9 > /tmp/ci-chaos-tables-j2.txt || rc=$?
test "$rc" -eq 3
cmp /tmp/ci-chaos-tables-j1.txt /tmp/ci-chaos-tables-j2.txt
rm -f /tmp/ci-experiments /tmp/ci-chaos-j1.txt /tmp/ci-chaos-j4.txt \
    /tmp/ci-chaos.jsonl /tmp/ci-resume.txt \
    /tmp/ci-chaos-tables-j1.txt /tmp/ci-chaos-tables-j2.txt

# Persistent-cache smoke: a cold quick-all into a fresh cache directory
# must reproduce the committed golden (any diff to it is explained in
# CHANGES.md), then a warm rerun from it — the warm run must be
# byte-identical and measurably faster (it skips every fingerprinted
# build+trace). Then corrupt one entry in place: the store must
# self-heal (recompute the cell, delete the bad file) and still produce
# identical output. Last, a -j 4 run with the cache disabled proves
# stdout depends on neither the cache nor the worker count. The golden
# is also the exactness gate for the VM's block core, which every
# quick-all table runs on.
go build -o /tmp/ci-experiments ./cmd/experiments
rm -rf /tmp/ci-cache
T0=$(date +%s)
/tmp/ci-experiments -quick -j 1 -cachedir /tmp/ci-cache all > /tmp/ci-cold.txt
T1=$(date +%s)
cmp /tmp/ci-cold.txt testdata/golden/quick-all.txt
/tmp/ci-experiments -quick -j 1 -cachedir /tmp/ci-cache all > /tmp/ci-warm.txt
T2=$(date +%s)
cmp /tmp/ci-cold.txt /tmp/ci-warm.txt
COLD=$((T1 - T0)); WARM=$((T2 - T1))
test $((WARM * 2)) -lt "$COLD"
ENTRY=$(find /tmp/ci-cache -name '*.json' | head -n 1)
test -n "$ENTRY"
printf 'garbage' > "$ENTRY"
/tmp/ci-experiments -quick -j 1 -cachedir /tmp/ci-cache all > /tmp/ci-heal.txt
cmp /tmp/ci-cold.txt /tmp/ci-heal.txt
# The corrupt bytes must be gone: self-heal deletes the bad entry and
# the recompute rewrites the slot. (Explicit if: `set -e` skips negated
# commands.)
if grep -qs garbage "$ENTRY"; then echo "corrupt entry survived"; exit 1; fi
/tmp/ci-experiments -quick -j 4 -cachedir off all > /tmp/ci-nocache-j4.txt
cmp /tmp/ci-cold.txt /tmp/ci-nocache-j4.txt
# Cache keys must cover every input a flag can change: a directory filled
# by a -quick run (smaller fuzz corpus) must not answer a full run.
rm -rf /tmp/ci-cache
/tmp/ci-experiments -quick -cachedir /tmp/ci-cache table2 > /dev/null
/tmp/ci-experiments -cachedir /tmp/ci-cache table2 > /tmp/ci-budget-warm.txt
/tmp/ci-experiments -cachedir off table2 > /tmp/ci-budget-cold.txt
cmp /tmp/ci-budget-cold.txt /tmp/ci-budget-warm.txt
rm -rf /tmp/ci-experiments /tmp/ci-cache /tmp/ci-default-cache \
    /tmp/ci-cold.txt /tmp/ci-warm.txt /tmp/ci-heal.txt /tmp/ci-nocache-j4.txt \
    /tmp/ci-budget-warm.txt /tmp/ci-budget-cold.txt

# Full-run golden: a cold full `all` must reproduce the committed
# experiments_output.txt, the numbers EXPERIMENTS.md quotes.
go build -o /tmp/ci-experiments ./cmd/experiments
/tmp/ci-experiments -cachedir off all > /tmp/ci-full.txt
cmp /tmp/ci-full.txt experiments_output.txt
rm -f /tmp/ci-experiments /tmp/ci-full.txt

# tunerd smoke: boot the service on an ephemeral port, tune + pareto +
# report through the real client, and hold the serving contract: (a)
# the bodies equal the committed goldens under internal/serve/testdata
# (which TestResponseGoldens also checks), and a repeated request is a
# response-cache hit per /debug/metrics, (b) response bytes do not
# depend on -j or cache state (a second, differently-configured server
# must agree byte for byte), (c) SIGTERM drains gracefully — new
# requests get the typed 503 during the grace window and the process
# exits 0.
go build -o /tmp/ci-tunerd ./cmd/tunerd
go build -o /tmp/ci-tunerd-client ./cmd/tunerd-client
rm -rf /tmp/ci-tunerd-cache
/tmp/ci-tunerd -addr 127.0.0.1:0 -j 4 -cachedir /tmp/ci-tunerd-cache \
    -drain-grace 2s > /tmp/ci-tunerd.log 2>&1 &
TUNERD_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^tunerd listening on //p' /tmp/ci-tunerd.log)
    test -n "$ADDR" && break
    sleep 0.1
done
test -n "$ADDR"
FIB=internal/serve/testdata/fib.mc
GOLD=internal/serve/testdata
/tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 -raw $FIB > /tmp/ci-tune-1.json
cmp /tmp/ci-tune-1.json $GOLD/tune-gcc-O1.golden.json
/tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 -raw $FIB > /tmp/ci-tune-2.json
cmp /tmp/ci-tune-1.json /tmp/ci-tune-2.json
/tmp/ci-tunerd-client -addr "$ADDR" metrics | grep -q '"tunerd.cache.hit"'
/tmp/ci-tunerd-client -addr "$ADDR" pareto -level O1 -raw $FIB > /tmp/ci-pareto.json
cmp /tmp/ci-pareto.json $GOLD/pareto-gcc-O1.golden.json
/tmp/ci-tunerd-client -addr "$ADDR" report -configs gcc-O0,gcc-O2 -raw $FIB > /tmp/ci-report.json
cmp /tmp/ci-report.json $GOLD/report-gcc-O0-gcc-O2.golden.json
/tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 $FIB | grep -q 'pass ranking'
# Determinism across servers: a cold instance with different worker
# count and no disk cache must return the exact same bytes.
/tmp/ci-tunerd -addr 127.0.0.1:0 -j 1 -cachedir off \
    > /tmp/ci-tunerd2.log 2>&1 &
TUNERD2_PID=$!
ADDR2=""
for _ in $(seq 1 50); do
    ADDR2=$(sed -n 's/^tunerd listening on //p' /tmp/ci-tunerd2.log)
    test -n "$ADDR2" && break
    sleep 0.1
done
test -n "$ADDR2"
/tmp/ci-tunerd-client -addr "$ADDR2" tune -level O1 -raw $FIB > /tmp/ci-tune-3.json
cmp /tmp/ci-tune-1.json /tmp/ci-tune-3.json
kill -TERM "$TUNERD2_PID"
wait "$TUNERD2_PID"
# Graceful drain: during the grace window a new request must be
# rejected with the typed draining error, and the server must exit 0.
kill -TERM "$TUNERD_PID"
sleep 0.3
rc=0; /tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 $FIB \
    2> /tmp/ci-drain-err.txt || rc=$?
test "$rc" -ne 0
grep -q 'draining' /tmp/ci-drain-err.txt
wait "$TUNERD_PID"
rm -rf /tmp/ci-tunerd /tmp/ci-tunerd-client /tmp/ci-tunerd-cache \
    /tmp/ci-tunerd.log /tmp/ci-tunerd2.log /tmp/ci-tune-1.json \
    /tmp/ci-tune-2.json /tmp/ci-tune-3.json /tmp/ci-pareto.json \
    /tmp/ci-report.json /tmp/ci-drain-err.txt

# Hunt smoke: a small seeded campaign with a planted bug must (a) find
# and bucket the plant with byte-identical reports across two runs,
# (b) survive SIGTERM mid-campaign — distinct exit code 4, journal
# flushed — and resume to the uninterrupted run's exact bytes.
go build -o /tmp/ci-experiments ./cmd/experiments
HUNT='-hunt-epochs 1 -hunt-candidates 4 -hunt-configs gcc-O2 -hunt-plant scope-nesting@dse'
# shellcheck disable=SC2086  # HUNT is a word list by construction
/tmp/ci-experiments $HUNT hunt > /tmp/ci-hunt-ref.txt
grep -q 'HUNT FINDINGS' /tmp/ci-hunt-ref.txt
grep -q 'scope-nesting @ dse' /tmp/ci-hunt-ref.txt
/tmp/ci-experiments $HUNT hunt > /tmp/ci-hunt-2.txt
cmp /tmp/ci-hunt-ref.txt /tmp/ci-hunt-2.txt
rm -f /tmp/ci-hunt.jsonl
/tmp/ci-experiments -journal /tmp/ci-hunt.jsonl $HUNT hunt \
    > /tmp/ci-hunt-int.txt &
HUNT_PID=$!
sleep 1.5
kill -TERM "$HUNT_PID"
rc=0; wait "$HUNT_PID" || rc=$?
test "$rc" -eq 4
grep -q 'HUNT INTERRUPTED' /tmp/ci-hunt-int.txt
test -s /tmp/ci-hunt.jsonl
/tmp/ci-experiments -resume /tmp/ci-hunt.jsonl $HUNT hunt \
    > /tmp/ci-hunt-resume.txt
cmp /tmp/ci-hunt-ref.txt /tmp/ci-hunt-resume.txt
rm -f /tmp/ci-experiments /tmp/ci-hunt-ref.txt /tmp/ci-hunt-2.txt \
    /tmp/ci-hunt.jsonl /tmp/ci-hunt-int.txt /tmp/ci-hunt-resume.txt

# Dataflow-analyzer smoke: loc-stale is a binary-level violation the IR
# analyzer cannot see — a planted one must be caught through the
# verify-each mid-chain attribution path and bucketed at the planted
# pass, byte-identically at -j 1 and -j 4 and across SIGTERM + -resume.
# Then the full debugify matrix (every subject x both profiles x every
# level) must be clean: zero non-advisory findings, no allowlist.
go build -o /tmp/ci-experiments ./cmd/experiments
DFHUNT='-hunt-epochs 1 -hunt-candidates 4 -hunt-configs gcc-O2 -hunt-plant loc-stale@dse'
# shellcheck disable=SC2086  # DFHUNT is a word list by construction
/tmp/ci-experiments -j 1 $DFHUNT hunt > /tmp/ci-df-j1.txt
grep -q 'HUNT FINDINGS' /tmp/ci-df-j1.txt
grep -q 'loc-stale @ dse' /tmp/ci-df-j1.txt
/tmp/ci-experiments -j 4 $DFHUNT hunt > /tmp/ci-df-j4.txt
cmp /tmp/ci-df-j1.txt /tmp/ci-df-j4.txt
rm -f /tmp/ci-df.jsonl
/tmp/ci-experiments -journal /tmp/ci-df.jsonl $DFHUNT hunt \
    > /tmp/ci-df-int.txt &
DF_PID=$!
sleep 1.5
kill -TERM "$DF_PID"
rc=0; wait "$DF_PID" || rc=$?
test "$rc" -eq 4
grep -q 'HUNT INTERRUPTED' /tmp/ci-df-int.txt
test -s /tmp/ci-df.jsonl
/tmp/ci-experiments -resume /tmp/ci-df.jsonl $DFHUNT hunt \
    > /tmp/ci-df-resume.txt
cmp /tmp/ci-df-j1.txt /tmp/ci-df-resume.txt
/tmp/ci-experiments -j 4 debugify > /tmp/ci-df-matrix.txt
grep -q '^PASS$' /tmp/ci-df-matrix.txt
rm -f /tmp/ci-experiments /tmp/ci-df-j1.txt /tmp/ci-df-j4.txt \
    /tmp/ci-df.jsonl /tmp/ci-df-int.txt /tmp/ci-df-resume.txt \
    /tmp/ci-df-matrix.txt
