#!/bin/sh
# Full verification loop: format check, build, vet, lint, test, race-check
# everything, and re-run the determinism suites twice so same-seed
# obs-snapshot diffs (chaos sweeps, session recovery, fig2/fig4 metrics)
# can't flake past CI. Every former shell smoke is a tier-1 test now, so
# `go test ./...` covers it: the benchsuite smokes are cmd/benchsuite's
# tests, the two-run chaossim cmp smokes (both detectors, -trace-out,
# -metrics-out) cmd/chaossim's, the two-run masclint -json cmp
# cmd/masclint's, and internal/bench re-runs the checked-in BENCH_*.json.
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go run ./cmd/masclint ./...
go test ./...
go test -race ./...
go test -run Determinism -count=2 ./...
# benchmark/ is its own module importing internal/ directly: ./... above
# never compiles it, so a change that may not edit it can still break it.
# This is also what proves internal/migp/dvmrp, the shim that exists only
# because benchmark/ spells its interior protocol dvmrp.New().
(cd benchmark && go vet . && go test .)
# The deletion-budget number as ROADMAP item 6 counts it (non-test Go
# outside benchmark/ and testdata/): each PR reports this line.
set +x
echo "non-test Go lines: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
