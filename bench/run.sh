#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build the
# bench program from source, then run it with the driver's arguments. The Go
# build cache, temporary files and the binary all live in .bench_build inside
# the checkout, because the driver allows reads and writes nowhere else.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark measures the repository's simulator and needs its source" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/flashbench" ./bench
exec "$build/flashbench" "$@"
