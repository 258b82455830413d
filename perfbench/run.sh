#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout's root. The binary and the Go build
# cache stay under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload ipgeo-wire --seed 1 --seconds 48 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
