#!/usr/bin/env bash
# Runs the DebugTuner benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload tables|debugify|serve --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all      # every workload, one summary
#   bash perfbench/run.sh --selftest          # the benchmark's own tests
#
# It builds the programs under test and the benchmark from source into
# $CARGO_TARGET_DIR (default .bench_build), keeps every Go cache inside
# that directory, and hands the arguments to the bench program.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/experiments" ] || [ ! -d "$root/cmd/tunerd" ]; then
	echo "perfbench: run from the root of a DebugTuner checkout; its sources are missing here" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# A cache directory from the environment would silently turn a cold run
# warm; the bench program passes -cachedir explicitly on every run.
unset DEBUGTUNER_CACHE_DIR

if [ "${1:-}" = --selftest ]; then
	cd perfbench
	exec go test ./...
fi
go build -o "$out/bin/experiments" ./cmd/experiments
go build -o "$out/bin/tunerd" ./cmd/tunerd
(cd perfbench && go build -o "$out/bin/bench" ./cmd/bench)
exec "$out/bin/bench" -root "$root" -bin "$out/bin" -tmp "$out/tmp" "$@"
