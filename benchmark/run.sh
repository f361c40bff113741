#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included, so
# nothing is written outside the checkout) and runs it from the repository
# root. Arguments are passed through; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build"
GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go build -C benchmark -o "$root/.bench_build/mpmd-benchmark" .
exec "$root/.bench_build/mpmd-benchmark" "$@"
