#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Go's build cache, module
# cache, temporary files and per-user configuration (telemetry counters)
# are pointed there too, so nothing is written outside the checkout:
#
#   bash benchmark/run.sh --workload tree-dense --seed 1 --seconds 12 --trace 0
#
# The first build in a checkout compiles the standard library into the
# fresh cache; later runs only check that the binary is up to date.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/mascbench" .
exec "$build/mascbench" "$@"
