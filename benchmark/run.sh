#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and
# runs it with the given arguments.  Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload small_batch_swap --seed 1 --seconds 24 --trace 0
set -euo pipefail
root=$PWD
if [ ! -f "$root/benchmark/main.go" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$root/benchmark" -o "$build/pbio-bench" .
exec "$build/pbio-bench" "$@"
