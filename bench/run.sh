#!/usr/bin/env bash
# Builds the benchmark harness and the serving binary from this checkout,
# then runs the harness with the given arguments, for example:
#
#   bash bench/run.sh --workload color-planar --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all -out a.json
#   bash bench/run.sh compare a.json b.json
#
# Every build and scratch file stays under .bench_build/ in the checkout;
# the Go toolchain runs offline and never fetches a newer toolchain.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd bench && go build -o "$out/distcolor-bench" .)
go build -o "$out/distcolor-serve" ./cmd/distcolor-serve

exec "$out/distcolor-bench" -server-bin "$out/distcolor-serve" -workdir "$out/work" "$@"
