#!/usr/bin/env bash
# Builds bulletd and the benchmark from source, then runs the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep the Go build cache, telemetry and any temporary files inside the
# checkout; never reach the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"

go build -o "$out/bulletd" ./cmd/bulletd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bulletd "$out/bulletd" -workdir "$out/runs" "$@"
