#!/usr/bin/env bash
# Builds camserve and the benchmark program from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 15 --trace 0
#
# Build caches, binaries, logs and span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/camserve ]; then
	echo "run.sh: go.mod or cmd/camserve not found; run from the root of a full checkout" >&2
	exit 1
fi

build=.bench_build
abs="$(pwd)/$build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$abs/gocache" GOTMPDIR="$abs/tmp" GOPATH="$abs/gopath" \
	XDG_CONFIG_HOME="$abs/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# With telemetry on, the go command starts a detached upload process that
# outlives this script; switch it off in the private config directory.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/bin/camserve" ./cmd/camserve >&2
(cd perfbench && go build -o "../$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -camserve "$build/bin/camserve" -out "$build/out" "$@"
