#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash benchmark/run.sh --workload http-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary and the go build cache under .bench_build/, dumps, span files and
# reports under benchmark/out/. A first run in a fresh checkout compiles the
# standard library into that cache; later runs relink in about a second.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
