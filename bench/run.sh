#!/usr/bin/env bash
# The repository's benchmark, one command: builds cmd/solapd and the load
# generator from the checkout this script sits in, then runs the generator.
#
#   bench/run.sh                        all four workloads, untraced and traced
#   bench/run.sh --repeat 2             ... twice, and compare the two sets
#   bench/run.sh --workload explore --seed 7 --seconds 20 --trace 0
#                                       one run, one JSON result line (the driver's form)
#
# Everything it writes stays inside the checkout: binaries and Go's build
# cache under .bench_build/, trace-<workload>.json under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
[ -n "${HOME:-}" ] || export HOME="$build/home" # go wants one for GOPATH
go build -o "$build/bin/solapd" ./cmd/solapd
go build -o "$build/bin/bench" ./bench
exec "$build/bin/bench" -solapd "$build/bin/solapd" "$@"
