#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given. Everything the build and the run leave behind goes
# under .bench_build in the checkout, the Go build cache included, so
# nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/gocache .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
