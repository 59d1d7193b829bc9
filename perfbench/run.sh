#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash perfbench/run.sh --workload read-chase --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache and run files stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
