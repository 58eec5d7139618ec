#!/bin/sh
# Full verification loop: format check, build, vet, lint, test, race-check
# everything, re-run the determinism suites twice so same-seed
# obs-snapshot diffs (chaos sweeps, session recovery, fig2/fig4 metrics)
# can't flake past CI, then smoke-run chaossim twice per detector. The
# benchsuite smokes (parallelism independence, exit-code and file:line
# golden, topology-file pipeline) are cmd/benchsuite's own tests, and the
# checked-in BENCH_*.json baselines are re-run by internal/bench's, so
# `go test ./...` above covers them.
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go run ./cmd/masclint ./...
go test ./...
go test -race ./...
go test -race ./internal/lint
go test -run Determinism -count=2 ./...

# masclint determinism smoke: two runs over the same tree must emit
# byte-identical JSON (findings are stably sorted by position, and the
# memoized cross-package state — call graph, guard table — must not leak
# map order into the output).
LINT_TMP="$(mktemp -d)"
go run ./cmd/masclint -json ./... >"$LINT_TMP/l1.json" || true
go run ./cmd/masclint -json ./... >"$LINT_TMP/l2.json" || true
cmp "$LINT_TMP/l1.json" "$LINT_TMP/l2.json"
rm -rf "$LINT_TMP"

BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT

# chaos-recovery determinism smoke: two same-seed chaossim runs must be
# byte-identical, under both failure detectors (hold timers alone, and
# the fast-liveness plane with its sub-second probe cadence).
go run ./cmd/chaossim -loss 0.1 -packets 5 -crash 90s >"$BENCH_TMP/ch1.csv" 2>/dev/null
go run ./cmd/chaossim -loss 0.1 -packets 5 -crash 90s >"$BENCH_TMP/ch2.csv" 2>/dev/null
cmp "$BENCH_TMP/ch1.csv" "$BENCH_TMP/ch2.csv"
go run ./cmd/chaossim -liveness -loss 0.1 -packets 5 -crash 90s >"$BENCH_TMP/lv1.csv" 2>/dev/null
go run ./cmd/chaossim -liveness -loss 0.1 -packets 5 -crash 90s >"$BENCH_TMP/lv2.csv" 2>/dev/null
cmp "$BENCH_TMP/lv1.csv" "$BENCH_TMP/lv2.csv"

# trace-plane determinism smoke: two same-seed chaossim runs must write
# byte-identical Chrome trace JSON and Prometheus expositions — the
# causal span trees (detect → failover → reroute) are part of the
# deterministic surface.
go run ./cmd/chaossim -loss 0.1 -packets 5 -crash 90s \
    -trace-out "$BENCH_TMP/tr1.json" -metrics-out "$BENCH_TMP/m1.prom" >/dev/null 2>&1
go run ./cmd/chaossim -loss 0.1 -packets 5 -crash 90s \
    -trace-out "$BENCH_TMP/tr2.json" -metrics-out "$BENCH_TMP/m2.prom" >/dev/null 2>&1
cmp "$BENCH_TMP/tr1.json" "$BENCH_TMP/tr2.json"
cmp "$BENCH_TMP/m1.prom" "$BENCH_TMP/m2.prom"
