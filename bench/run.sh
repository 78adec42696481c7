#!/usr/bin/env bash
# Builds leakybench, its host-speed meter leakyref and the leakyfed daemon
# from this checkout, then runs one benchmark workload:
#
#   bash bench/run.sh --workload sweep-space --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(
	cd "$root/bench"
	go build -o "$build/bin/leakybench" .
	go build -o "$build/bin/leakyref" ./leakyref
	go build -o "$build/bin/leakyfed" repro/cmd/leakyfed
)
exec "$build/bin/leakybench" "$@"
