#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from this directory with the arguments given. This is
# the command BENCHMARK.json names; everything it writes — the binary, the
# Go build cache, out/trace-*.json — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/go-cache}" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
