#!/usr/bin/env bash
# Builds the benchmark harness and the shears binary from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# checkout root (Go build cache included), so the run touches nothing
# outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/shears" repro/cmd/shears
cd "$root"
exec "$build/bin/perfbench" -root "$root" -shears "$build/bin/shears" "$@"
