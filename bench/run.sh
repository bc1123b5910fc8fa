#!/usr/bin/env bash
# The benchmark driver's entry point: build the benchmark from source
# into the checkout's .bench_build/ (binary and Go build cache both,
# so nothing is written outside the checkout), then run it from this
# directory with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/txbench" .
exec "$build/txbench" "$@"
