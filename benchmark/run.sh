#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the driver's entry point.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything the build and the run write
# (Go's build and module caches, the binary, WAL directories, trace.json)
# stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config" # go's telemetry counters and GOENV file
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" --out "$build" "$@"
