#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source into
# .bench_build/ at the root of the checkout, keeping Go's build cache and
# temporary files there too so that nothing is written outside the
# checkout, then runs it from benchmark/ with the flags it was given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
