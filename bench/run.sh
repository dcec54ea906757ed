#!/bin/sh
# Entry point named in BENCHMARK.json: builds the benchmark from source
# and hands over to it. Everything the Go toolchain writes — build
# cache, temporary files, its own configuration — is kept under
# .bench_build in the checkout, so a run reads and writes nothing
# outside it, and nothing is downloaded.
#
#   sh bench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# `go run ./bench` does the same with the toolchain's usual directories.
set -e
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
