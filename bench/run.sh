#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# with every toolchain cache inside the checkout (a run may read and write
# nowhere else), then runs it from the checkout root. The benchmark itself
# builds cmd/stencilserved the same way before any clock starts.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
