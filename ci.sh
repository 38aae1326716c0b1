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
rm -f /tmp/ci-experiments /tmp/ci-chaos-j1.txt /tmp/ci-chaos-j4.txt \
    /tmp/ci-chaos.jsonl /tmp/ci-resume.txt

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
rm -rf /tmp/ci-experiments /tmp/ci-cache /tmp/ci-default-cache \
    /tmp/ci-cold.txt /tmp/ci-warm.txt /tmp/ci-heal.txt /tmp/ci-nocache-j4.txt

# Multi-worker smoke: `experiments work` distributes one run across N
# worker processes leasing cells from a shared journal directory, then
# merges and renders. The render must be byte-identical to the
# single-process run for N=1 and N=3 — including when a worker is
# killed -9 one second in (its leases expire, peers re-lease the cells)
# — and the killed run must still exit 0.
go build -o /tmp/ci-experiments ./cmd/experiments
/tmp/ci-experiments -cachedir off -seeds 3 -suite=false -configs levels \
    difftest > /tmp/ci-work-ref.txt
/tmp/ci-experiments work -workers 1 -cachedir off -seeds 3 -suite=false \
    -configs levels difftest > /tmp/ci-work-1.txt
cmp /tmp/ci-work-ref.txt /tmp/ci-work-1.txt
/tmp/ci-experiments work -workers 3 -kill-worker 1:1s -lease-ttl 2s \
    -cachedir off -seeds 3 -suite=false -configs levels \
    difftest > /tmp/ci-work-3.txt
cmp /tmp/ci-work-ref.txt /tmp/ci-work-3.txt
rm -f /tmp/ci-experiments /tmp/ci-work-ref.txt /tmp/ci-work-1.txt \
    /tmp/ci-work-3.txt

# tunerd smoke: boot the service on an ephemeral port, tune + report
# through the real client, and hold the serving contract: (a) two
# identical requests return byte-identical bodies with the second a
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
cat > /tmp/ci-fib.mc <<'EOF'
func fib(n: int): int {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}

func main() {
    print(fib(12));
}
EOF
/tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 -raw /tmp/ci-fib.mc > /tmp/ci-tune-1.json
/tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 -raw /tmp/ci-fib.mc > /tmp/ci-tune-2.json
cmp /tmp/ci-tune-1.json /tmp/ci-tune-2.json
/tmp/ci-tunerd-client -addr "$ADDR" metrics | grep -q '"tunerd.cache.hit"'
/tmp/ci-tunerd-client -addr "$ADDR" report -configs gcc-O0,gcc-O2 -raw /tmp/ci-fib.mc \
    | grep -q '"kind":"report"'
/tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 /tmp/ci-fib.mc \
    | grep -q 'pass ranking'
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
/tmp/ci-tunerd-client -addr "$ADDR2" tune -level O1 -raw /tmp/ci-fib.mc > /tmp/ci-tune-3.json
cmp /tmp/ci-tune-1.json /tmp/ci-tune-3.json
kill -TERM "$TUNERD2_PID"
wait "$TUNERD2_PID"
# Graceful drain: during the grace window a new request must be
# rejected with the typed draining error, and the server must exit 0.
kill -TERM "$TUNERD_PID"
sleep 0.3
rc=0; /tmp/ci-tunerd-client -addr "$ADDR" tune -level O1 /tmp/ci-fib.mc \
    2> /tmp/ci-drain-err.txt || rc=$?
test "$rc" -ne 0
grep -q 'draining' /tmp/ci-drain-err.txt
wait "$TUNERD_PID"
# Fleet smoke: a -workers 2 supervisor (admission + round-robin proxy
# over re-exec'd worker tunerds) must serve the exact same bytes as the
# single-process servers above, and SIGTERM must drain the whole fleet
# with exit 0.
/tmp/ci-tunerd -workers 2 -addr 127.0.0.1:0 -cachedir off \
    > /tmp/ci-tunerd3.log 2>&1 &
TUNERD3_PID=$!
ADDR3=""
for _ in $(seq 1 50); do
    ADDR3=$(sed -n 's/^tunerd listening on //p' /tmp/ci-tunerd3.log)
    test -n "$ADDR3" && break
    sleep 0.1
done
test -n "$ADDR3"
/tmp/ci-tunerd-client -addr "$ADDR3" tune -level O1 -raw /tmp/ci-fib.mc > /tmp/ci-tune-4.json
cmp /tmp/ci-tune-1.json /tmp/ci-tune-4.json
kill -TERM "$TUNERD3_PID"
wait "$TUNERD3_PID"
rm -rf /tmp/ci-tunerd /tmp/ci-tunerd-client /tmp/ci-tunerd-cache \
    /tmp/ci-tunerd.log /tmp/ci-tunerd2.log /tmp/ci-tunerd3.log \
    /tmp/ci-fib.mc /tmp/ci-tune-1.json /tmp/ci-tune-2.json \
    /tmp/ci-tune-3.json /tmp/ci-tune-4.json /tmp/ci-drain-err.txt

# Hunt smoke: a small seeded campaign with a planted bug must (a) find
# and bucket the plant with byte-identical reports across two runs,
# (b) survive SIGTERM mid-campaign — distinct exit code 4, journal
# flushed — and resume to the uninterrupted run's exact bytes, and
# (c) render the same bytes when the candidates are leased across two
# worker processes and merged.
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
/tmp/ci-experiments work -workers 2 $HUNT hunt > /tmp/ci-hunt-w2.txt
cmp /tmp/ci-hunt-ref.txt /tmp/ci-hunt-w2.txt
rm -f /tmp/ci-experiments /tmp/ci-hunt-ref.txt /tmp/ci-hunt-2.txt \
    /tmp/ci-hunt.jsonl /tmp/ci-hunt-int.txt /tmp/ci-hunt-resume.txt \
    /tmp/ci-hunt-w2.txt

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
