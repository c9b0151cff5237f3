#!/usr/bin/env bash
# Builds the activetimed server and the benchmark program from this
# checkout into .bench_build/, then runs the benchmark with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-forest --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -o "$out/activetimed" ./cmd/activetimed
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/activetimed" "$@"
