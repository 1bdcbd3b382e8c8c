#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the go tool and the benchmark write — build cache,
# binary, stores, input files — goes under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
