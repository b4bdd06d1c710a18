#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the root of the
# checkout and runs it there, so that nothing is read or written outside the
# checkout: BENCHMARK.json's command is `bash perf/run.sh`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go -C "$root/perf" build -o "$build/perf" .
cd "$root"
exec "$build/perf" "$@"
