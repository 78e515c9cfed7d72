#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"), called from
# the root of a checkout as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It builds the benchmark from source into .bench_build/ and runs it there,
# so that the Go build cache and temporary files stay inside the checkout.
# Anyone else can use `go run -C bench .` with the same arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMAXPROCS=2
go build -C bench -o "$build/kifmm-bench" .
exec "$build/kifmm-bench" "$@"
