#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout (build
# cache included, so nothing is written outside the checkout) and runs it
# from the root with the arguments given.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$root/.bench_build/coinbench" .
exec "$root/.bench_build/coinbench" "$@"
