#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given flags:
#
#   bash perfbench/run.sh --workload surface --seed 1 --seconds 14 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/ too.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$(dirname "$0")" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
