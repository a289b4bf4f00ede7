#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the root of the checkout:
#
#   bash kvbench/run.sh --workload vpic --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/kvbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off

(cd "$root/kvbench" && go build -o "$out/kvbench" .) >&2
exec "$out/kvbench" "$@"
