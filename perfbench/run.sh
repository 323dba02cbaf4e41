#!/usr/bin/env bash
# Builds cmd/pivote and the benchmark into .bench_build/ of the current
# directory (the repository root), then runs the benchmark with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Every build and cache file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# With telemetry on, every go command forks a detached upload process
# that outlives it; "go telemetry off" is the one command that starts
# none, and it turns telemetry off for the builds below.
go telemetry off
go build -o "$out/pivote" ./cmd/pivote
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pivote "$out/pivote" -workdir "$out" "$@"
