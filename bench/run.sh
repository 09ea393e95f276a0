#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's flags.
# Everything the build writes — the binary and the Go build cache — lands in
# .bench_build/ at the root of the checkout, so a run touches nothing outside
# it. Call from the root of the checkout: bash bench/run.sh [flags]
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$bench" -o "$build/joinmm-bench" .
cd "$root"
exec "$build/joinmm-bench" "$@"
