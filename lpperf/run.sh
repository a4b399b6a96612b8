#!/usr/bin/env bash
# Builds the benchmark from source (first run: also the standard
# library into a private build cache) and runs it with the given
# arguments, from the root of a checkout:
#
#   bash lpperf/run.sh --workload kv-update-closed --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's backing images all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/lpperf" && go build -o "$out/lpperf" .)
exec "$out/lpperf" --dir "$out" "$@"
