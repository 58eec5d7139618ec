// Package bench is the benchmark-suite layer: named workloads (suites)
// listed in one table, run through the internal/harness parallel trial
// runner — the only place this repository fans work out — and reported
// as a machine-readable SuiteResult that serializes to
// BENCH_<suite>.json. Suite outputs are deterministic functions of the
// suite seed — identical at any parallelism — while wall-clock,
// allocation, and rate figures live in the volatile Env and Timing
// sections that determinism comparisons strip.
//
// Layering: bench sits above core (it drives both the experiments
// harnesses and the full-network chaos sweep); cmd/benchsuite imports it
// directly.
package bench

import (
	"slices"

	"mascbgmp/internal/obs"
)

// Direction says which way a metric should move to be "better", so the
// -compare regression gate knows what to flag.
type Direction string

const (
	// Lower means smaller values are better (latencies, table sizes).
	Lower Direction = "lower"
	// Higher means larger values are better (delivery ratios).
	Higher Direction = "higher"
	// Info marks a descriptive metric that is recorded and checked for
	// determinism but never gated on (counts, sizes with no preference).
	Info Direction = "info"
)

// MetricDef declares one metric a suite reports every trial.
type MetricDef struct {
	Name   string
	Unit   string
	Better Direction
	Help   string
}

// TrialContext is what a suite's Trial func gets: the trial index, a seed
// derived from (suite seed, index) — so results are bit-identical
// regardless of worker count — and a fresh per-trial observer whose
// counter totals are summed into SuiteResult.Counters. Backend carries
// Options.Backend: the data-plane backend the suite was asked to run
// under (empty: the suite's default). Suites that model forwarding honor
// it; others may ignore it.
type TrialContext struct {
	Index   int
	Seed    int64
	Obs     *obs.Observer
	Backend string
}

// TrialOutput is one trial's measurements. Values must contain exactly
// the suite's declared metric names. Rates holds operation counts
// (events completed during the trial); the runner divides them by the
// trial's wall time and reports the mean as Timing.Rates["<name>_per_sec"]
// — kept out of Values because anything wall-clock-derived is
// nondeterministic by nature.
type TrialOutput struct {
	Values map[string]float64
	Rates  map[string]float64
}

// Suite is a named benchmark workload: a built-in from the Suites table or
// a scenario file wrapped by LoadScenarioFile.
type Suite struct {
	Name        string
	Description string
	// DefaultTrials is used when Options.Trials is zero.
	DefaultTrials int
	Metrics       []MetricDef
	Trial         func(TrialContext) (TrialOutput, error)
}

// Suites returns the built-in suites sorted by name (a copy: callers may
// append a loaded scenario file to it).
func Suites() []Suite { return slices.Clone(builtins) }

// Lookup finds a built-in suite by name.
func Lookup(name string) (Suite, bool) {
	for _, s := range builtins {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}
