#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./benchmark from source and runs
# it with the given arguments. Everything the Go toolchain writes (build
# cache, temporary files, the binary) stays under benchmark/out/build in the
# checkout, which benchmark/.gitignore ignores. `go run ./benchmark <args>` is
# the same program without that confinement.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
