#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, data
# directories) stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters) in
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$bench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
