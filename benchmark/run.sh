#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from the checkout's
# source and runs it with the arguments given.
#
#   bash benchmark/run.sh --workload train-wire --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind — the binary, Go's build cache, its
# scratch files — stays in .bench_build/ at the root of the checkout, so a
# run reads and writes nothing outside it. `go run ./benchmark` does the same
# job for a person at a prompt.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: the benchmark measures the repository around it; $PWD has none" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/ecgraph-benchmark" ./benchmark
exec "$build/ecgraph-benchmark" "$@"
