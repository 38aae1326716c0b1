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
# Every config reads the pipeline's shared toggle tables; the rest of
# the package is too slow under the race detector for this gate.
go test -race -count=1 -run TestConfigsConcurrent ./internal/pipeline/

# Keep the binary smokes hermetic: the persistent evalcache defaults to
# the user cache dir, which CI must neither read nor pollute. Every
# comparison of two runs (-j 1 vs -j 4, run vs rerun) and every clean
# gate passes -cachedir off, so it never compares a cold run with a
# warm one; the resume drills use a fresh store directory each.
DEBUGTUNER_CACHE_DIR=/tmp/ci-default-cache
export DEBUGTUNER_CACHE_DIR
rm -rf /tmp/ci-default-cache

# Differential smoke: a small fixed seed set over the plain level matrix
# must report zero findings, and stdout must not depend on parallelism.
go build -o /tmp/ci-experiments ./cmd/experiments
/tmp/ci-experiments -j 1 -cachedir off -seeds 5 -configs levels difftest > /tmp/ci-difftest-j1.txt
/tmp/ci-experiments -j 4 -cachedir off -seeds 5 -configs levels difftest > /tmp/ci-difftest-j4.txt
cmp /tmp/ci-difftest-j1.txt /tmp/ci-difftest-j4.txt
grep -q '^PASS$' /tmp/ci-difftest-j1.txt
rm -f /tmp/ci-experiments /tmp/ci-difftest-j1.txt /tmp/ci-difftest-j4.txt

# Static debug-info verification smoke: one subject under both profiles
# must be debugify-clean, byte-stable across worker counts; and the
# verify-each driver must pass on a known-good fixture.
go build -o /tmp/ci-experiments ./cmd/experiments
/tmp/ci-experiments -j 1 -cachedir off -dbg-subjects libpng debugify > /tmp/ci-debugify-j1.txt
/tmp/ci-experiments -j 4 -cachedir off -dbg-subjects libpng debugify > /tmp/ci-debugify-j4.txt
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
# at any worker count, and (c) after the faulted run filled a fresh
# store, resume on it WITHOUT chaos: read back the subjects it finished
# (a subject with a quarantined cell is never stored), rerun the rest,
# and print a cold clean run's bytes with exit 0.
go build -o /tmp/ci-experiments ./cmd/experiments
CHAOSDT='-seeds 6 -suite=false -configs levels'
# shellcheck disable=SC2086  # CHAOSDT is a word list by construction
rc=0; /tmp/ci-experiments -j 1 -cachedir off -chaos rate=0.2,seed=5 $CHAOSDT \
    difftest > /tmp/ci-chaos-j1.txt || rc=$?
test "$rc" -eq 3
rc=0; /tmp/ci-experiments -j 4 -cachedir off -chaos rate=0.2,seed=5 $CHAOSDT \
    difftest > /tmp/ci-chaos-j4.txt || rc=$?
test "$rc" -eq 3
cmp /tmp/ci-chaos-j1.txt /tmp/ci-chaos-j4.txt
grep -q '^QUARANTINED(' /tmp/ci-chaos-j1.txt
rm -rf /tmp/ci-chaos-store
rc=0; /tmp/ci-experiments -j 4 -cachedir /tmp/ci-chaos-store -chaos rate=0.2,seed=5 $CHAOSDT \
    difftest > /dev/null || rc=$?
test "$rc" -eq 3
/tmp/ci-experiments -j 4 -cachedir off $CHAOSDT difftest > /tmp/ci-chaos-cold.txt
/tmp/ci-experiments -j 4 -cachedir /tmp/ci-chaos-store -metrics /tmp/ci-rerun-metrics.json \
    $CHAOSDT difftest > /tmp/ci-rerun.txt
cmp /tmp/ci-chaos-cold.txt /tmp/ci-rerun.txt
grep -q '^PASS$' /tmp/ci-rerun.txt
grep -Eq '"diskcache\.difftest\.hit": [1-9]' /tmp/ci-rerun-metrics.json
# The suite tables under fault injection: a quarantined cell leaves its
# subject out of every average of the table (named), so each table
# completes with gaps, exit 3, and the same bytes at any worker count.
rc=0; /tmp/ci-experiments -j 1 -quick -cachedir off -chaos rate=0.08,seed=3 \
    table2 table4 fig2 table9 > /tmp/ci-chaos-tables-j1.txt || rc=$?
test "$rc" -eq 3
rc=0; /tmp/ci-experiments -j 2 -quick -cachedir off -chaos rate=0.08,seed=3 \
    table2 table4 fig2 table9 > /tmp/ci-chaos-tables-j2.txt || rc=$?
test "$rc" -eq 3
cmp /tmp/ci-chaos-tables-j1.txt /tmp/ci-chaos-tables-j2.txt
# The debugtuner CLI's quarantine path: the tune result, the ranking
# and the greedy search under fault injection complete with gaps, exit
# 3, print the QUARANTINED report, and the same bytes at any -j. Seed 7
# drops two tune references (bzip2, libssh), so the report must name at
# least one subject left out of the tune result.
go build -o /tmp/ci-debugtuner ./cmd/debugtuner
CHAOSTUNE='-cachedir off -execs 20 -level O1 -dy 3 -greedy 2 -chaos rate=0.08,seed=7'
# shellcheck disable=SC2086  # CHAOSTUNE is a word list by construction
rc=0; /tmp/ci-debugtuner -j 1 $CHAOSTUNE > /tmp/ci-chaos-tune-j1.txt || rc=$?
test "$rc" -eq 3
rc=0; /tmp/ci-debugtuner -j 2 $CHAOSTUNE > /tmp/ci-chaos-tune-j2.txt || rc=$?
test "$rc" -eq 3
cmp /tmp/ci-chaos-tune-j1.txt /tmp/ci-chaos-tune-j2.txt
grep -Eq '^QUARANTINED: [1-9][0-9]* subject' /tmp/ci-chaos-tune-j1.txt
rm -rf /tmp/ci-experiments /tmp/ci-chaos-j1.txt /tmp/ci-chaos-j4.txt \
    /tmp/ci-chaos-store /tmp/ci-chaos-cold.txt /tmp/ci-rerun.txt \
    /tmp/ci-rerun-metrics.json \
    /tmp/ci-chaos-tables-j1.txt /tmp/ci-chaos-tables-j2.txt \
    /tmp/ci-debugtuner /tmp/ci-chaos-tune-j1.txt /tmp/ci-chaos-tune-j2.txt

# Persistent-cache smoke: a cold quick-all into a fresh cache directory
# must reproduce the committed golden (any diff to it is explained in
# CHANGES.md), then a warm rerun from it — the warm run must be
# byte-identical and measurably faster, and its metrics must show that
# it computed no cell the store holds: no disk miss or write, and every
# namespace a quick-all fills read back (a cache that lost its
# namespace is memory-only and shows neither a miss nor a hit). Then
# corrupt one record
# in place inside a segment: the store must self-heal (drop the record
# from disk, recompute the cell) and still produce identical output.
# Last, a -j 4 run with the cache disabled proves stdout depends on
# neither the cache nor the worker count. The golden is also the
# exactness gate for the VM's block core, which every quick-all table
# runs on.
go build -o /tmp/ci-experiments ./cmd/experiments
rm -rf /tmp/ci-cache
T0=$(date +%s)
/tmp/ci-experiments -quick -j 1 -cachedir /tmp/ci-cache all > /tmp/ci-cold.txt
T1=$(date +%s)
cmp /tmp/ci-cold.txt testdata/golden/quick-all.txt
/tmp/ci-experiments -quick -j 1 -cachedir /tmp/ci-cache \
    -metrics /tmp/ci-warm-metrics.json all > /tmp/ci-warm.txt
T2=$(date +%s)
cmp /tmp/ci-cold.txt /tmp/ci-warm.txt
COLD=$((T1 - T0)); WARM=$((T2 - T1))
test $((WARM * 2)) -lt "$COLD"
if grep -Eq '"diskcache\.(miss|write)"' /tmp/ci-warm-metrics.json; then
    echo "warm quick-all recomputed a stored cell"; exit 1
fi
for NS in tuner.scores tuner.effect specsuite experiments.fdo \
    experiments.synth experiments.synthseeds testsuite.corpus \
    testsuite.coverage; do
    grep -Eq "\"diskcache\\.$NS\\.hit\": [1-9]" /tmp/ci-warm-metrics.json
done
SEG=$(find /tmp/ci-cache -name '*.seg' | head -n 1)
test -n "$SEG"
sed -i '1s/"sum":"[0-9a-f]*"/"sum":"garbage"/' "$SEG"
grep -q garbage "$SEG"
/tmp/ci-experiments -quick -j 1 -cachedir /tmp/ci-cache all > /tmp/ci-heal.txt
cmp /tmp/ci-cold.txt /tmp/ci-heal.txt
# The corrupt bytes must be gone: self-heal rewrites the segment without
# the bad record and the recompute appends the cell again. (Explicit if:
# `set -e` skips negated commands.)
if grep -qs garbage /tmp/ci-cache/*.seg; then echo "corrupt record survived"; exit 1; fi
/tmp/ci-experiments -quick -j 4 -cachedir off all > /tmp/ci-nocache-j4.txt
cmp /tmp/ci-cold.txt /tmp/ci-nocache-j4.txt
# Cache keys must cover every input a flag can change: a directory filled
# by a -quick run (smaller fuzz corpus) must not answer a full run.
# Table III prints the corpus sizes, so a corpus key without the fuzz
# budget fails here. Likewise a directory filled under another AutoFDO
# sampling period must not answer Figure 3, and one filled with Table
# I's 20-program selection must not answer a 25-program one.
rm -rf /tmp/ci-cache
/tmp/ci-experiments -quick -cachedir /tmp/ci-cache table2 table3 > /dev/null
/tmp/ci-experiments -cachedir /tmp/ci-cache table2 table3 > /tmp/ci-budget-warm.txt
/tmp/ci-experiments -cachedir off table2 table3 > /tmp/ci-budget-cold.txt
cmp /tmp/ci-budget-cold.txt /tmp/ci-budget-warm.txt
rm -rf /tmp/ci-cache
/tmp/ci-experiments -quick -sample-every 499 -cachedir /tmp/ci-cache fig3 > /dev/null
/tmp/ci-experiments -quick -cachedir /tmp/ci-cache fig3 > /tmp/ci-sample-warm.txt
/tmp/ci-experiments -quick -cachedir off fig3 > /tmp/ci-sample-cold.txt
cmp /tmp/ci-sample-cold.txt /tmp/ci-sample-warm.txt
rm -rf /tmp/ci-cache
/tmp/ci-experiments -quick -cachedir /tmp/ci-cache table1 > /dev/null
/tmp/ci-experiments -quick -synth 25 -cachedir /tmp/ci-cache table1 > /tmp/ci-synth-warm.txt
/tmp/ci-experiments -quick -synth 25 -cachedir off table1 > /tmp/ci-synth-cold.txt
cmp /tmp/ci-synth-cold.txt /tmp/ci-synth-warm.txt
rm -rf /tmp/ci-experiments /tmp/ci-cache /tmp/ci-default-cache \
    /tmp/ci-cold.txt /tmp/ci-warm.txt /tmp/ci-warm-metrics.json \
    /tmp/ci-heal.txt /tmp/ci-nocache-j4.txt \
    /tmp/ci-budget-warm.txt /tmp/ci-budget-cold.txt \
    /tmp/ci-sample-warm.txt /tmp/ci-sample-cold.txt \
    /tmp/ci-synth-warm.txt /tmp/ci-synth-cold.txt

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
# exits 0, (d) a new tunerd on the drained one's cache directory answers
# from the disk store: the golden body, a disk hit and no disk write.
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
/tmp/ci-tunerd -addr 127.0.0.1:0 -cachedir /tmp/ci-tunerd-cache \
    > /tmp/ci-tunerd3.log 2>&1 &
TUNERD3_PID=$!
ADDR3=""
for _ in $(seq 1 50); do
    ADDR3=$(sed -n 's/^tunerd listening on //p' /tmp/ci-tunerd3.log)
    test -n "$ADDR3" && break
    sleep 0.1
done
test -n "$ADDR3"
/tmp/ci-tunerd-client -addr "$ADDR3" tune -level O1 -raw $FIB > /tmp/ci-tune-4.json
cmp /tmp/ci-tune-4.json $GOLD/tune-gcc-O1.golden.json
/tmp/ci-tunerd-client -addr "$ADDR3" metrics > /tmp/ci-tunerd3-metrics.json
grep -q '"diskcache.tunerd.resp.hit"' /tmp/ci-tunerd3-metrics.json
if grep -q '"diskcache.write"' /tmp/ci-tunerd3-metrics.json; then
    echo "restarted tunerd recomputed a stored response"; exit 1
fi
kill -TERM "$TUNERD3_PID"
wait "$TUNERD3_PID"
rm -rf /tmp/ci-tunerd /tmp/ci-tunerd-client /tmp/ci-tunerd-cache \
    /tmp/ci-tunerd.log /tmp/ci-tunerd2.log /tmp/ci-tunerd3.log \
    /tmp/ci-tune-1.json /tmp/ci-tune-2.json /tmp/ci-tune-3.json \
    /tmp/ci-tune-4.json /tmp/ci-tunerd3-metrics.json /tmp/ci-pareto.json \
    /tmp/ci-report.json /tmp/ci-drain-err.txt

# Hunt smoke: a small seeded campaign with a planted bug must (a) find
# and bucket the plant with byte-identical reports across two runs,
# (b) survive SIGTERM mid-campaign into a fresh store — distinct exit
# code 4, store synced — and resume on that store to the uninterrupted
# run's exact bytes, reading back the candidates the first run finished.
go build -o /tmp/ci-experiments ./cmd/experiments
HUNT='-hunt-epochs 1 -hunt-candidates 4 -hunt-configs gcc-O2 -hunt-plant scope-nesting@dse'
# shellcheck disable=SC2086  # HUNT is a word list by construction
/tmp/ci-experiments -cachedir off $HUNT hunt > /tmp/ci-hunt-ref.txt
grep -q 'HUNT FINDINGS' /tmp/ci-hunt-ref.txt
grep -q 'scope-nesting @ dse' /tmp/ci-hunt-ref.txt
/tmp/ci-experiments -cachedir off $HUNT hunt > /tmp/ci-hunt-2.txt
cmp /tmp/ci-hunt-ref.txt /tmp/ci-hunt-2.txt
rm -rf /tmp/ci-hunt-store
/tmp/ci-experiments -cachedir /tmp/ci-hunt-store $HUNT hunt \
    > /tmp/ci-hunt-int.txt &
HUNT_PID=$!
sleep 1.5
kill -TERM "$HUNT_PID"
rc=0; wait "$HUNT_PID" || rc=$?
test "$rc" -eq 4
grep -q 'HUNT INTERRUPTED' /tmp/ci-hunt-int.txt
/tmp/ci-experiments -cachedir /tmp/ci-hunt-store -metrics /tmp/ci-hunt-metrics.json \
    $HUNT hunt > /tmp/ci-hunt-rerun.txt
cmp /tmp/ci-hunt-ref.txt /tmp/ci-hunt-rerun.txt
grep -Eq '"diskcache\.hunt\.hit": [1-9]' /tmp/ci-hunt-metrics.json
rm -rf /tmp/ci-experiments /tmp/ci-hunt-ref.txt /tmp/ci-hunt-2.txt \
    /tmp/ci-hunt-store /tmp/ci-hunt-int.txt /tmp/ci-hunt-rerun.txt \
    /tmp/ci-hunt-metrics.json

# Dataflow-analyzer smoke: loc-stale is a binary-level violation the IR
# analyzer cannot see — a planted one must be caught through the
# verify-each mid-chain attribution path and bucketed at the planted
# pass, byte-identically at -j 1 and -j 4 and across SIGTERM and a
# rerun on the interrupted run's store. Then the full debugify matrix
# (every subject x both profiles x every level) must be clean: zero
# non-advisory findings, no allowlist.
go build -o /tmp/ci-experiments ./cmd/experiments
DFHUNT='-hunt-epochs 1 -hunt-candidates 4 -hunt-configs gcc-O2 -hunt-plant loc-stale@dse'
# shellcheck disable=SC2086  # DFHUNT is a word list by construction
/tmp/ci-experiments -j 1 -cachedir off $DFHUNT hunt > /tmp/ci-df-j1.txt
grep -q 'HUNT FINDINGS' /tmp/ci-df-j1.txt
grep -q 'loc-stale @ dse' /tmp/ci-df-j1.txt
/tmp/ci-experiments -j 4 -cachedir off $DFHUNT hunt > /tmp/ci-df-j4.txt
cmp /tmp/ci-df-j1.txt /tmp/ci-df-j4.txt
rm -rf /tmp/ci-df-store
/tmp/ci-experiments -cachedir /tmp/ci-df-store $DFHUNT hunt \
    > /tmp/ci-df-int.txt &
DF_PID=$!
sleep 1.5
kill -TERM "$DF_PID"
rc=0; wait "$DF_PID" || rc=$?
test "$rc" -eq 4
grep -q 'HUNT INTERRUPTED' /tmp/ci-df-int.txt
/tmp/ci-experiments -cachedir /tmp/ci-df-store -metrics /tmp/ci-df-metrics.json \
    $DFHUNT hunt > /tmp/ci-df-rerun.txt
cmp /tmp/ci-df-j1.txt /tmp/ci-df-rerun.txt
grep -Eq '"diskcache\.hunt\.hit": [1-9]' /tmp/ci-df-metrics.json
/tmp/ci-experiments -j 4 -cachedir off debugify > /tmp/ci-df-matrix.txt
grep -q '^PASS$' /tmp/ci-df-matrix.txt
rm -rf /tmp/ci-experiments /tmp/ci-df-j1.txt /tmp/ci-df-j4.txt \
    /tmp/ci-df-store /tmp/ci-df-int.txt /tmp/ci-df-rerun.txt \
    /tmp/ci-df-metrics.json /tmp/ci-df-matrix.txt
