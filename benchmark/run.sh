#!/usr/bin/env bash
# The benchmark's entry point for the driver (the "command" of
# BENCHMARK.json): build ./benchmark from source into .bench_build/ and run
# it with the arguments given. Everything Go writes (build cache, module
# cache, binary, span files) stays under .bench_build/ in the current
# directory, which must be the root of a checkout. By hand, `go run
# ./benchmark` does the same with the user's own Go cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d benchmark ]]; then
	echo "benchmark/run.sh: run from the root of a checkout (go.mod and benchmark/ not found in $PWD)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/scotch-benchmark" ./benchmark
exec "$build/scotch-benchmark" "$@"
