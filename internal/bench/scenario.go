// Package bench is the scenario-driven benchmark layer: named workloads
// (suites) registered once, run through the internal/harness parallel
// trial runner, and reported as a machine-readable SuiteResult that
// serializes to BENCH_<suite>.json. Scenario outputs are deterministic
// functions of the suite seed — identical at any parallelism — while
// wall-clock, allocation, and rate figures live in the volatile Env and
// Timing sections that determinism comparisons strip.
//
// Layering: bench sits above core (it drives both the experiments
// harnesses and the full-network chaos sweep) and below the facade
// package, which re-exports the registry for cmd/benchsuite and the root
// microbenchmarks.
package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

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

// MetricDef declares one metric a scenario reports every trial.
type MetricDef struct {
	Name   string
	Unit   string
	Better Direction
	Help   string
}

// TrialContext is what a scenario's Trial func gets: the trial index, a
// seed and rng derived from (suite seed, index) — so results are
// bit-identical regardless of worker count — and a fresh per-trial
// observer whose counter totals are summed into SuiteResult.Counters.
// Backend carries Options.Backend: the data-plane backend the suite was
// asked to run under (empty: the scenario's default). Scenarios that
// model forwarding honor it; others may ignore it.
type TrialContext struct {
	Index   int
	Seed    int64
	Rng     *rand.Rand
	Obs     *obs.Observer
	Backend string
}

// TrialOutput is one trial's measurements. Values must contain exactly
// the scenario's declared metric names. Rates holds operation counts
// (events completed during the trial); the runner divides them by the
// trial's wall time and reports the mean as Timing.Rates["<name>_per_sec"]
// — kept out of Values because anything wall-clock-derived is
// nondeterministic by nature.
type TrialOutput struct {
	Values map[string]float64
	Rates  map[string]float64
}

// Scenario is a named, registered benchmark workload.
type Scenario struct {
	Name        string
	Description string
	// DefaultTrials is used when Options.Trials is zero.
	DefaultTrials int
	Metrics       []MetricDef
	Trial         func(TrialContext) (TrialOutput, error)
}

var (
	regMu    sync.Mutex
	registry = map[string]Scenario{} // guarded by regMu
)

// Register adds a scenario to the global registry. It panics on a
// duplicate or malformed scenario — registration happens in init funcs
// and a bad entry is a programming error.
func Register(s Scenario) {
	if s.Name == "" || s.Trial == nil || len(s.Metrics) == 0 {
		panic(fmt.Sprintf("bench: malformed scenario %+v", s.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("bench: duplicate scenario " + s.Name)
	}
	registry[s.Name] = s
}

// Unregister removes a file-loaded scenario, so a caller that outlives
// one CLI invocation (cmd/benchsuite's run under test) leaves the
// registry as it found it. Unknown names are a no-op.
func Unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
}

// Scenarios returns all registered scenarios sorted by name.
func Scenarios() []Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	return s, ok
}
