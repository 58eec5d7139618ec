#!/bin/sh
# Full verification loop: format check, build, vet, test, race-check
# everything, and re-run the determinism suites twice so same-seed
# obs-snapshot diffs (chaos sweeps, session recovery, fig2/fig4 metrics)
# can't flake past CI. Every former shell smoke is a tier-1 test now, so
# `go test ./...` covers it: the benchsuite smokes are cmd/benchsuite's
# tests, the two-run chaossim cmp smokes (both detectors, -trace-out,
# -metrics-out) cmd/chaossim's, the lint pass is internal/lint's
# TestModuleIsClean, and internal/bench re-runs the checked-in BENCH_*.json.
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go test ./...
go test -race ./...
# The message-ownership, scratch re-entry and state-recycling tests again,
# five times under the race detector, with the churn tables, the churn
# replay and the send budget (whose Fig 3(b) row builds each §5.3 relay in
# a recycled packet): a message, entry or member set reused while someone
# still holds it shows only under some interleavings, and one pass sees one.
go test -race -count=5 -run 'Own|Share|Whole|Defer|Reentry|Recycl|Table|ChurnReplay|SendAllocBudget' ./internal/addr ./internal/core ./internal/dataplane ./internal/bgmp ./internal/migp
go test -run Determinism -count=2 ./...
# Every benchmark once, so that one that panics or stops building fails
# here and not on the next measurement (about a second of run time).
go test -run '^$' -bench . -benchtime 1x ./...
# go vet only compiles the examples; run each once, so that one that panics
# or exits non-zero fails here (they are small, about a second each).
for ex in examples/*/; do go run "./$ex" >/dev/null; done
# benchmark/ is its own module importing internal/ directly: ./... above
# never compiles it, so a change that may not edit it can still break it.
# This is also what proves internal/migp/dvmrp, the shim that exists only
# because benchmark/ spells its interior protocol dvmrp.New().
(cd benchmark && go vet . && go test .)
# The deletion-budget number as ROADMAP item 8 counts it (non-test Go
# outside benchmark/ and testdata/): each PR reports this line.
set +x
echo "non-test Go lines: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
